"""Line-oriented script language for rings, ideals, complexes, and maps.

Binding statements construct values immediately (bad literals are parse
errors, with line and column); commands are syntax-checked, stored on
the session, and dispatched later, reporting engine failures separately
so a front end can distinguish the two.  One table, `COMMANDS`, states
the command set: each command's argument grammar, which the parser
reads, and its runner.  Renderers emit the same grammar the parser
accepts, and re-parsing a rendered complex yields an equal complex.

tokenize makes one regex match per token and ends the list with an eof
token, so the parser's current token is always toks[pos].  One function,
parse_factor, reads unary minus, "^" and atoms (-2^2 is -(2^2)).
"""

import re
from collections import namedtuple

from .complexes import ChainMap, FreeComplex, koszul
from .errors import ComplexFormatError, EngineError, ParseError
from .generation import (
    level_lines,
    level_lower_bound,
    principal_power_witness,
    strong_generation_obstruction,
    thick_member,
    validate_witness,
)
from .homology import ann_total_homology, homology_all, resolve_primes, supph
from .ideals import Ideal
from .matrices import Matrix
from .rings import GF, QQ, ZZ, RingElem, UniQuotRing, Zmod, poly_ring
from .spectrum import idempotents, nilpotence_lemma_check, spec_description

# a token with the whitespace and comment before it; "bad" is any
# character that starts no token
_TOKEN_RE = re.compile(
    r"""[ \t\r]* (?:\#[^\n]*)?
      (?: (?P<nl>\n)
        | (?P<int>\d+)
        | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<op>->|\.\.|[-+*/^()\[\]{};,=:])
        | (?P<eof>\Z)
        | (?P<bad>.)
      )
    """,
    re.VERBOSE,
)

# kind is "int", "name", "op" or "eof"
Token = namedtuple("Token", "kind text line col")


def tokenize(text):
    out = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind == "nl":
            line += 1
            line_start = end
        elif kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", line, start - line_start + 1)
        else:
            out.append(Token(kind, text[start:end], line, start - line_start + 1))
            if kind == "eof":
                return out


# --------------------------------------------------------------- sessions


Command = namedtuple("Command", "name args line")


class Session:
    def __init__(self):
        self.bindings = {}  # name -> (kind, value)
        self.commands = []

    def bind(self, name, kind, value, line):
        if name in self.bindings:
            raise ParseError(f"name {name!r} is already bound", line, 1)
        self.bindings[name] = (kind, value)

    def get(self, name, want):
        if name not in self.bindings:
            raise EngineError(f"unknown name {name!r}")
        kind, value = self.bindings[name]
        if kind != want:
            article = "an" if kind[0] in "aeiou" else "a"
            raise EngineError(f"{name!r} is bound to {article} {kind}, expected {want}")
        return value


class _Parser:
    # next() never moves past the final eof token, so toks[pos] exists
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # token texts never overlap across kinds, so the text alone tells an
    # op from a name
    def at(self, *texts):
        return self.toks[self.pos].text in texts

    def accept(self, text):
        if self.toks[self.pos].text == text:
            self.next()
            return True
        return False

    def comma_list(self, item):
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def indexed(self):
        """The `(n) =` after d, rank and c; returns n."""
        self.expect_op("(")
        n = self.expect_int()
        self.expect_op(")")
        self.expect_op("=")
        return n

    def expect_op(self, text):
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def expect_name(self, what="name"):
        tok = self.next()
        if tok.kind != "name":
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def expect_int(self):
        neg = self.accept("-")
        tok = self.next()
        if tok.kind != "int":
            self.fail(f"expected integer, found {tok.text!r}", tok)
        value = self.int_value(tok)
        return -value if neg else value

    def int_value(self, tok):
        """An int token's value; past CPython's digit limit for int()
        it is a parse error at the token."""
        try:
            return int(tok.text)
        except ValueError:
            self.fail(f"integer of {len(tok.text)} digits is too long", tok)

    def expect_flag(self, flag):
        a = self.next()
        b = self.next()
        tok = self.next()
        if (a.text, b.text, tok.text) != ("-", "-", flag[2:]):
            self.fail(f"expected {flag}", a)

    # statement keyword, possibly hyphenated (thick-member, level-lb)
    def command_word(self):
        tok = self.expect_name("statement keyword")
        word = tok.text
        while self.at("-"):
            after = self.toks[min(self.pos + 1, len(self.toks) - 1)]
            if after.kind != "name" or f"{word}-{after.text}" not in COMMANDS:
                break
            self.next()
            word = f"{word}-{self.next().text}"
        return word, tok

    # element expressions -------------------------------------------------

    def parse_expr(self):
        node = self.parse_term()
        while self.at("+", "-"):
            op = self.next().text
            node = ("bin", op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at("*", "/"):
            op = self.next().text
            node = ("bin", op, node, self.parse_factor())
        return node

    def parse_factor(self):
        """factor := "-" factor | atom ["^" int], atom := int | name |
        "(" expr ")"; so -2^2 is -(2^2)."""
        tok = self.next()
        if tok.text == "-":
            return ("neg", self.parse_factor(), tok)
        if tok.kind == "int":
            node = ("int", self.int_value(tok), tok)
        elif tok.kind == "name":
            node = ("var", tok.text, tok)
        elif tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
        else:
            self.fail(f"expected element expression, found {tok.text!r}", tok)
        if self.accept("^"):
            tok = self.peek()
            n = self.expect_int()
            if n < 0:
                self.fail("negative exponent", tok)
            node = ("pow", node, n)
        return node

    # literals -------------------------------------------------------------

    def parse_ring_literal(self):
        tok = self.expect_name("ring literal")
        head = tok.text
        if head == "Z":
            return ZZ
        if head == "Q":
            return QQ
        if head == "Zmod":
            return Zmod(self.expect_int())
        if head == "Fp":
            return GF(self.expect_int())
        if head == "poly":
            F = self.parse_coeff_field()
            names = self.parse_var_list()
            order = "grevlex"
            if self.at("lex", "grevlex"):
                order = self.next().text
            return poly_ring(F, names, order=order)
        if head == "polyquot":
            F = self.parse_coeff_field()
            names = self.parse_var_list()
            if len(names) != 1:
                self.fail("polyquot takes exactly one variable", tok)
            self.expect_op("(")
            cover = poly_ring(F, names)
            ast = self.parse_expr()
            self.expect_op(")")
            payload = eval_expr(ast, cover)
            return UniQuotRing(F, names[0], payload)
        self.fail(f"unknown ring literal {head!r}", tok)

    def parse_coeff_field(self):
        tok = self.expect_name("coefficient field")
        if tok.text == "Q":
            return QQ
        if tok.text == "Fp":
            return GF(self.expect_int())
        m = re.fullmatch(r"F(\d+)", tok.text)
        if m:
            return GF(int(m.group(1)))
        self.fail(f"expected a coefficient field, found {tok.text!r}", tok)

    def parse_var_list(self):
        self.expect_op("[")
        names = self.comma_list(lambda: self.expect_name("variable").text)
        self.expect_op("]")
        return names

    def parse_ideal_literal(self, ring):
        self.expect_op("(")
        asts = self.comma_list(self.parse_expr)
        self.expect_op(")")
        return Ideal(
            ring, [RingElem(ring, eval_expr(a, ring)) for a in asts]
        )

    def parse_matrix(self, ring):
        start = self.expect_op("[")
        if self.accept("]"):
            return Matrix(ring, [], 0, 0)
        rows = self.comma_list(lambda: self.parse_matrix_row(ring))
        self.expect_op("]")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            self.fail("matrix rows have unequal lengths", start)
        return Matrix(ring, rows, len(rows), len(rows[0]))

    def parse_matrix_row(self, ring):
        self.expect_op("[")
        row = []
        if not self.at("]"):
            env = _var_env(ring)
            row = self.comma_list(lambda: _eval(self.parse_expr(), ring, env))
        self.expect_op("]")
        return row

    def parse_complex_literal(self, ring):
        start = self.expect_op("{")
        head = self.expect_name()
        if head.text != "deg":
            self.fail("complex literal must start with a deg range", head)
        lo = self.expect_int()
        self.expect_op("..")
        hi = self.expect_int()
        if hi < lo:
            self.fail("empty degree range", head)
        diffs = {}
        ranks = {}
        while self.accept(";"):
            tok = self.expect_name("d or rank entry")
            if tok.text == "d":
                n = self.indexed()
                if n in diffs:
                    self.fail(f"duplicate d({n}) block", tok)
                diffs[n] = (self.parse_matrix(ring), tok)
            elif tok.text == "rank":
                n = self.indexed()
                r = self.expect_int()
                if r < 0:
                    self.fail("ranks are nonnegative", tok)
                if n in ranks:
                    self.fail(f"duplicate rank({n}) entry", tok)
                ranks[n] = (r, tok)
            else:
                self.fail(f"expected d(...) or rank(...), found {tok.text!r}", tok)
        self.expect_op("}")
        return self.build_complex(ring, lo, hi, diffs, ranks, start)

    def build_complex(self, ring, lo, hi, diffs, ranks, start):
        inferred = {}

        def put(n, r, tok):
            if not lo <= n <= hi:
                self.fail(f"degree {n} falls outside deg {lo}..{hi}", tok)
            if inferred.get(n, r) != r:
                self.fail(f"conflicting ranks for degree {n}", tok)
            inferred[n] = r

        for n, (M, tok) in diffs.items():
            put(n, M.ncols, tok)
            put(n + 1, M.nrows, tok)
        for n, (r, tok) in ranks.items():
            put(n, r, tok)
        full = {n: inferred.get(n, 0) for n in range(lo, hi + 1)}
        mats = {}
        for n, (M, tok) in diffs.items():
            if M.nrows and M.ncols:
                mats[n] = M
        try:
            return FreeComplex(ring, full, mats)
        except ComplexFormatError as exc:
            self.fail(str(exc), start)

    def parse_map_literal(self, src, dst):
        start = self.expect_op("{")
        ring = src.ring
        comps = {}
        while not self.at("}"):
            tok = self.expect_name("c entry")
            if tok.text != "c":
                self.fail(f"expected c(...), found {tok.text!r}", tok)
            n = self.indexed()
            if n in comps:
                self.fail(f"duplicate c({n}) block", tok)
            comps[n] = self.parse_matrix(ring)
            self.accept(";")
        self.expect_op("}")
        try:
            return ChainMap(src, dst, comps)
        except EngineError as exc:
            self.fail(str(exc), start)


def eval_expr(ast, ring):
    return _eval(ast, ring, _var_env(ring))


def _eval(node, ring, env):
    tag = node[0]
    if tag == "int":
        return ring.from_int(node[1])
    if tag == "var":
        name, tok = node[1], node[2]
        if name not in env:
            raise ParseError(f"unknown variable {name!r}", tok.line, tok.col)
        return env[name]
    if tag == "neg":
        return ring.neg(_eval(node[1], ring, env))
    if tag == "pow":
        return ring.pow_(_eval(node[1], ring, env), node[2])
    _, op, a, b = node
    x, y = _eval(a, ring, env), _eval(b, ring, env)
    if op == "+":
        return ring.add(x, y)
    if op == "-":
        return ring.sub(x, y)
    if op == "*":
        return ring.mul(x, y)
    return ring.exact_div(x, y)


def _var_env(ring):
    if ring.kind in ("poly1", "polyquot"):
        return {ring.var: ring.var_elem().payload}
    if ring.kind == "polym":
        return {v: ring.var_elem(i).payload for i, v in enumerate(ring.vars)}
    return {}


# ---------------------------------------------------------------- parsing


def parse_script(text):
    """Build a session: bindings are constructed eagerly, commands are
    stored for run_command."""
    parser = _Parser(tokenize(text))
    session = Session()
    while parser.peek().kind != "eof":
        _parse_statement(parser, session)
    return session


def _parse_statement(parser, session):
    word, tok = parser.command_word()
    if word in COMMANDS:
        _parse_command(parser, session, word, tok)
        return
    if word not in ("ring", "ideal", "complex", "map"):
        parser.fail(f"unknown statement {word!r}", tok)
    name = parser.expect_name(f"{word} name").text
    literal = _binding_header(parser, session, word)
    parser.expect_op("=")
    session.bind(name, word, _literal(parser, literal), tok.line)


def _binding_header(parser, session, kind):
    """Read a binding's header, between its name and `=`; returns the
    parser of its literal."""
    if kind == "ring":
        return parser.parse_ring_literal
    if kind == "map":
        parser.expect_op(":")
        src = _bound(parser, session, "complex")
        parser.expect_op("->")
        dst = _bound(parser, session, "complex")
        return lambda: parser.parse_map_literal(src, dst)
    _expect_keyword(parser, "over")
    ring = _bound(parser, session, "ring")
    if kind == "ideal":
        return lambda: parser.parse_ideal_literal(ring)
    return lambda: parser.parse_complex_literal(ring)


def _expect_keyword(parser, kw):
    tok = parser.expect_name(kw)
    if tok.text != kw:
        parser.fail(f"expected {kw!r}, found {tok.text!r}", tok)


def _bound(parser, session, kind):
    """The value bound to the next name, which must be a `kind`."""
    tok = parser.expect_name(f"{kind} name")
    try:
        return session.get(tok.text, kind)
    except EngineError as exc:
        parser.fail(str(exc), tok)


def _literal(parser, thunk):
    """A literal that cannot be built is a parse error at its first
    token, whether the engine or a ring constructor (ValueError)
    refused it."""
    start = parser.peek()
    try:
        return thunk()
    except ParseError:
        raise
    except (EngineError, ValueError) as exc:
        parser.fail(str(exc), start)


def _parse_command(parser, session, word, tok):
    """Read the arguments that COMMANDS[word] lists: a name label, "as",
    "(expr)", or (label, floor) for an integer of at least floor."""
    args = []
    for item in COMMANDS[word][0]:
        if item == "as":
            args.append(_parse_as(parser, session, tok))
        elif item == "(expr)":
            parser.expect_op("(")
            args.append(parser.parse_expr())
            parser.expect_op(")")
        elif isinstance(item, tuple):
            label, floor = item
            if label == "--max":
                parser.expect_flag(label)
            n_tok = parser.peek()
            n = parser.expect_int()
            if n < floor:
                parser.fail(f"{label} must be at least {floor}", n_tok)
            args.append(n)
        else:
            args.append(parser.expect_name(item).text)
    session.commands.append(Command(word, tuple(args), tok.line))


def _parse_as(parser, session, tok):
    if parser.accept("as"):
        name = parser.expect_name("binding name").text
        # claim the name now so later statements cannot reuse it
        session.bind(name, "pending result", None, tok.line)
        return name
    return None


# -------------------------------------------------------------- rendering


def render_complex(X):
    """Canonical literal: d-blocks wherever both ends have rank, rank
    entries only for degrees no block pins down."""
    if X.is_zero_complex():
        return "{ deg 0..0 }"
    lo, hi = X.lo(), X.hi()
    parts = [f"deg {lo}..{hi}"]
    pinned = set()
    for n in range(lo, hi + 1):
        if X.rank(n) and X.rank(n + 1):
            parts.append(f"d({n}) = {X.diff(n).render()}")
            pinned.add(n)
            pinned.add(n + 1)
    for n in range(lo, hi + 1):
        if X.rank(n) and n not in pinned:
            parts.append(f"rank({n}) = {X.rank(n)}")
    return "{ " + " ; ".join(parts) + " }"


# ------------------------------------------------------------- dispatch


def run_command(session, cmd):
    """Execute one stored command; returns a list of key: value blocks
    (each block a list of lines)."""
    return COMMANDS[cmd.name][1](session, cmd)


def _cmd_koszul(session, cmd):
    name, bind_as = cmd.args
    I = session.get(name, "ideal")
    K = koszul(I)
    if bind_as:
        session.bindings[bind_as] = ("complex", K)
    block = [
        "command: koszul",
        f"ideal: {I.render()}",
        f"complex: {render_complex(K)}",
    ]
    if bind_as:
        block.append(f"bound: {bind_as}")
    return [block]


def _cmd_homology(session, cmd):
    X = session.get(cmd.args[0], "complex")
    block = ["command: homology"]
    modules = homology_all(X)
    if not modules:
        block.append("trivial: yes")
    for n, H in modules.items():
        block.append(f"H({n}): {H.render()}")
    return [block]


def _cmd_ann(session, cmd):
    X = session.get(cmd.args[0], "complex")
    return [["command: ann", f"ann: {ann_total_homology(X).render()}"]]


def _cmd_support(session, cmd):
    X = session.get(cmd.args[0], "complex")
    sup = supph(X)
    block = ["command: support", f"support: {sup.render()}"]
    primes = resolve_primes(sup)
    if primes is None:
        block.append("primes: unresolved")
    else:
        block.append("primes: " + " ; ".join(p.render() for p in primes))
    return [block]


def _cmd_thick_member(session, cmd):
    X = session.get(cmd.args[0], "complex")
    G = session.get(cmd.args[1], "complex")
    verdict = thick_member(X, G)
    return [["command: thick-member"] + verdict.lines()]


def _cmd_level_lb(session, cmd):
    X = session.get(cmd.args[0], "complex")
    G = session.get(cmd.args[1], "complex")
    cert = level_lower_bound(X, G)
    return [["command: level-lb"] + cert.lines()]


def _cmd_witness_principal(session, cmd):
    ring_name, ast, n, bind_as = cmd.args
    ring = session.get(ring_name, "ring")
    try:
        x = RingElem(ring, eval_expr(ast, ring))
    except ParseError as exc:
        raise EngineError(str(exc))
    witness, target = principal_power_witness(x, n)
    G = koszul(Ideal(ring, [x]))
    lvl = validate_witness(witness, target, G)
    if bind_as:
        session.bindings[bind_as] = ("witness", (witness, target, G))
    block = [
        "command: witness-principal",
        f"element: {x!r}",
        f"power: {n}",
        *level_lines(lvl),
        f"target: {render_complex(target)}",
    ]
    if bind_as:
        block.append(f"bound: {bind_as}")
    return [block]


def _cmd_validate_witness(session, cmd):
    W = session.get(cmd.args[0], "witness")
    X = session.get(cmd.args[1], "complex")
    G = session.get(cmd.args[2], "complex")
    lvl = validate_witness(W[0], X, G)
    return [["command: validate-witness", "valid: yes"] + level_lines(lvl)]


def _cmd_spec(session, cmd):
    R = session.get(cmd.args[0], "ring")
    return [["command: spec"] + spec_description(R).lines()]


def _cmd_idempotents(session, cmd):
    R = session.get(cmd.args[0], "ring")
    elems = idempotents(R)
    rendered = sorted((R.render(e) for e in elems), key=lambda s: (len(s), s))
    return [["command: idempotents", "idempotents: " + " ".join(rendered)]]


def _ideal_over_ring(session, cmd):
    """(ideal, max) of a `<ring> <ideal> --max n` command; the ring is
    looked up first."""
    ring_name, ideal_name, max_n = cmd.args
    R = session.get(ring_name, "ring")
    I = session.get(ideal_name, "ideal")
    if I.ring != R:
        raise EngineError(f"ideal {ideal_name!r} is not defined over {ring_name!r}")
    return I, max_n


def _cmd_nilpotence(session, cmd):
    report = nilpotence_lemma_check(*_ideal_over_ring(session, cmd))
    return [["command: nilpotence"] + report.lines()]


def _cmd_obstruct(session, cmd):
    blocks = strong_generation_obstruction(*_ideal_over_ring(session, cmd)).blocks()
    blocks[0].insert(0, "command: obstruct")
    return blocks


# each command's argument grammar (see _parse_command) and runner
COMMANDS = {
    "koszul": (("ideal name", "as"), _cmd_koszul),
    "homology": (("name",), _cmd_homology),
    "ann": (("name",), _cmd_ann),
    "support": (("name",), _cmd_support),
    "thick-member": (("name", "name"), _cmd_thick_member),
    "level-lb": (("name", "name"), _cmd_level_lb),
    "witness-principal": (
        ("ring name", "(expr)", ("power", 1), "as"),
        _cmd_witness_principal,
    ),
    "validate-witness": (("name", "name", "name"), _cmd_validate_witness),
    "spec": (("name",), _cmd_spec),
    "idempotents": (("name",), _cmd_idempotents),
    "nilpotence": (("ring name", "ideal name", ("--max", 1)), _cmd_nilpotence),
    "obstruct": (("ring name", "ideal name", ("--max", 2)), _cmd_obstruct),
}
