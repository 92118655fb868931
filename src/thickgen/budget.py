"""Step budgets for potentially long-running kernels.

Each kernel counts its work units against the fixed DEFAULT_MAX_STEPS,
so stuck inputs fail loudly instead of hanging.
"""

from .errors import StepBudgetExceededError

DEFAULT_MAX_STEPS = 10**6


class StepCounter:
    """Counts work units and raises once the limit is passed."""

    def __init__(self, label):
        self.label = label
        self.count = 0

    def tick(self, n=1):
        self.count += n
        if self.count > DEFAULT_MAX_STEPS:
            raise StepBudgetExceededError(self.label, DEFAULT_MAX_STEPS)
