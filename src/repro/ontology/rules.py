"""The paper's rule language (Fig. 6) and its parser.

A rule looks like::

    [Rule3: (?addr1 imcl:address ?value1), (?addr2 imcl:address ?value2),
            (?srcRsc imcl:compatible ?destRsc), (?n imcl:responseTime ?t),
            lessThan(?t, '1000'^^xsd:double)
         -> (?action imcl:actName 'move'),
            (?action imcl:srcAddress ?value1),
            (?action imcl:destAddress ?value2)]

The body is a conjunction of triple patterns plus *builtin* predicate calls
(``lessThan``, ``greaterThan``, ...); the head is a list of triple templates
instantiated with the matched bindings.  This mirrors Jena's general-purpose
rule syntax that the paper embeds in autonomous agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.ontology.triples import Literal, Term, Triple, is_variable

PatternTerm = Union[str, Literal]
Bindings = Dict[str, Term]


class RuleParseError(ValueError):
    """Raised when rule text cannot be parsed."""


@dataclass(frozen=True)
class TriplePattern:
    """A triple where any position may be a ``?variable``.

    ``plan`` is the pattern's join plan, computed once: one
    ``(term, is_variable)`` slot per position, so a join reads bound
    values straight from it instead of re-testing every term.
    """

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self) -> None:
        slots = tuple((t, is_variable(t)) for t in self.terms())
        object.__setattr__(self, "plan", slots)
        object.__setattr__(self, "_variables",
                           tuple(t for t, var in slots if var))

    def terms(self) -> Tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> List[str]:
        return list(self._variables)

    def is_ground(self) -> bool:
        return not self._variables

    def substitute(self, bindings: Bindings) -> "TriplePattern":
        """Replace bound variables; unbound variables stay as-is."""
        return TriplePattern(*(bindings.get(t, t) if var else t
                               for t, var in self.plan))

    def to_triple(self, bindings: Optional[Bindings] = None) -> Triple:
        """Ground this pattern into a Triple; raises if variables remain."""
        if bindings:
            subject, predicate, obj = (bindings.get(t, t) if var else t
                                       for t, var in self.plan)
        else:
            subject, predicate, obj = self.subject, self.predicate, self.object
        if is_variable(subject) or is_variable(predicate) \
                or is_variable(obj) or isinstance(subject, Literal) \
                or isinstance(predicate, Literal):
            grounded = TriplePattern(subject, predicate, obj)
            for term in grounded.terms():
                if is_variable(term):
                    raise RuleParseError(
                        f"unbound variable {term!r} in {grounded}")
            raise RuleParseError(f"literal in subject/predicate of {grounded}")
        return Triple(subject, predicate, obj)

    def __str__(self) -> str:
        return f"({self.subject} {self.predicate} {self.object})"


#: A builtin test: called with the argument values after substitution.
BuiltinFunction = Callable[..., bool]


def _numeric(term: Term) -> Any:
    """Extract a comparable value from a term for comparison builtins."""
    if isinstance(term, Literal):
        return term.value
    return term


def _less_than(a: Term, b: Term) -> bool:
    return _numeric(a) < _numeric(b)


def _greater_than(a: Term, b: Term) -> bool:
    return _numeric(a) > _numeric(b)


def _le(a: Term, b: Term) -> bool:
    return _numeric(a) <= _numeric(b)


def _ge(a: Term, b: Term) -> bool:
    return _numeric(a) >= _numeric(b)


def _equal(a: Term, b: Term) -> bool:
    return _numeric(a) == _numeric(b)


def _not_equal(a: Term, b: Term) -> bool:
    return _numeric(a) != _numeric(b)


#: Builtins available to rules, by name (Jena-compatible naming).
BUILTIN_REGISTRY: Dict[str, BuiltinFunction] = {
    "lessThan": _less_than,
    "greaterThan": _greater_than,
    "lessThanOrEqual": _le,
    "greaterThanOrEqual": _ge,
    "equal": _equal,
    "notEqual": _not_equal,
}

#: Builtins the engine interprets against the graph rather than as pure
#: functions (Jena's ``noValue`` negation-as-failure).
GRAPH_BUILTINS = frozenset({"noValue"})


@dataclass(frozen=True)
class Builtin:
    """A named builtin with its implementation."""

    name: str
    function: BuiltinFunction = field(compare=False)


@dataclass(frozen=True)
class BuiltinCall:
    """An invocation of a builtin inside a rule body, e.g.
    ``lessThan(?t, '1000'^^xsd:double)``."""

    name: str
    args: Tuple[PatternTerm, ...]

    def __post_init__(self) -> None:
        slots = tuple((a, is_variable(a)) for a in self.args)
        object.__setattr__(self, "plan", slots)
        object.__setattr__(self, "_variables",
                           tuple(a for a, var in slots if var))

    def variables(self) -> List[str]:
        return list(self._variables)

    def evaluate(self, bindings: Bindings,
                 registry: Optional[Dict[str, BuiltinFunction]] = None,
                 graph=None) -> bool:
        """Substitute bindings into args and call the builtin.

        An unbound variable makes a *functional* builtin fail (Jena
        semantics: builtins test bound values).  Graph builtins
        (``noValue``) treat unbound variables as wildcards and need the
        ``graph`` argument.  Unknown builtin names raise.
        """
        if self.name in GRAPH_BUILTINS:
            return self._evaluate_graph_builtin(bindings, graph)
        functions = registry if registry is not None else BUILTIN_REGISTRY
        try:
            function = functions[self.name]
        except KeyError:
            raise RuleParseError(f"unknown builtin {self.name!r}") from None
        resolved: List[Term] = []
        for arg, variable in self.plan:
            if variable:
                if arg not in bindings:
                    return False
                resolved.append(bindings[arg])
            else:
                resolved.append(arg)
        try:
            return bool(function(*resolved))
        except TypeError:
            return False

    def _evaluate_graph_builtin(self, bindings: Bindings, graph) -> bool:
        """``noValue(s, p, o)``: true when no matching triple exists.

        Bound arguments constrain the match; unbound variables are
        wildcards (negation as failure over the current closure).
        """
        if graph is None:
            raise RuleParseError(
                f"builtin {self.name!r} needs graph access; evaluate it "
                f"through the reasoner")
        if len(self.args) != 3:
            raise RuleParseError(
                f"{self.name} takes (subject, predicate, object); got "
                f"{len(self.args)} args")

        def resolve(term):
            if is_variable(term):
                return bindings.get(term)  # None -> wildcard
            return term

        subject, predicate, obj = (resolve(a) for a in self.args)
        if isinstance(subject, Literal) or isinstance(predicate, Literal):
            return True  # such a triple cannot exist
        for _ in graph.match(subject, predicate, obj):
            return False
        return True

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


BodyClause = Union[TriplePattern, BuiltinCall]


@dataclass(frozen=True)
class Rule:
    """A named forward rule: body (patterns + builtins) => head (templates).

    Head variables never bound in the body (the paper's Rule 3 uses an
    unbound ``?action``) are *skolem* variables: each body match mints one
    fresh individual shared across that firing's head templates.
    """

    name: str
    body: Tuple[BodyClause, ...]
    head: Tuple[TriplePattern, ...]

    def __post_init__(self) -> None:
        if not self.head:
            raise RuleParseError(f"rule {self.name!r} has an empty head")
        patterns = tuple(c for c in self.body if isinstance(c, TriplePattern))
        bound = {v for p in patterns for v in p._variables}
        skolems: List[str] = []
        for template in self.head:
            for var in template._variables:
                if var not in bound and var not in skolems:
                    skolems.append(var)
        setattr_ = object.__setattr__
        setattr_(self, "_patterns", patterns)
        setattr_(self, "_builtins",
                 tuple(c for c in self.body if isinstance(c, BuiltinCall)))
        setattr_(self, "_skolems", tuple(skolems))
        setattr_(self, "steps", self._join_steps())

    def _join_steps(self) -> Tuple[Tuple[Tuple[BuiltinCall, ...],
                                         Optional[BodyClause]], ...]:
        """The body's join plan: ``(ready, clause)`` per step.

        ``clause`` is a triple pattern to match, a graph builtin
        (``noValue``) to test in body order, or ``None`` for the end of
        the body.  ``ready`` lists the functional builtins to run on
        entering the step: each runs as soon as every variable it reads
        is bound, which is known statically, since only the patterns
        before it bind variables.  Builtins whose variables are never all
        bound run at the end (and fail there, unbound).
        """
        bound: set = set()
        pending: List[BuiltinCall] = []
        ready: List[BuiltinCall] = []
        steps = []

        def take_ready() -> None:
            for call in list(pending):
                if all(v in bound for v in call._variables):
                    pending.remove(call)
                    ready.append(call)

        for clause in self.body:
            take_ready()
            if isinstance(clause, BuiltinCall) \
                    and clause.name not in GRAPH_BUILTINS:
                pending.append(clause)
                continue
            steps.append((tuple(ready), clause))
            ready.clear()
            if isinstance(clause, TriplePattern):
                bound.update(clause._variables)
        take_ready()
        steps.append((tuple(ready + pending), None))
        return tuple(steps)

    def skolem_variables(self) -> List[str]:
        """Head variables not bound by any body pattern."""
        return list(self._skolems)

    @property
    def patterns(self) -> List[TriplePattern]:
        return list(self._patterns)

    @property
    def builtins(self) -> List[BuiltinCall]:
        return list(self._builtins)

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.body)
        head = ", ".join(str(t) for t in self.head)
        return f"[{self.name}: {body} -> {head}]"


class RuleSet:
    """An ordered, named collection of rules."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        self._rules: List[Rule] = []
        self._by_name: Dict[str, Rule] = {}
        for rule in rules or ():
            self.add(rule)

    def add(self, rule: Rule) -> None:
        if rule.name in self._by_name:
            raise RuleParseError(f"duplicate rule name {rule.name!r}")
        self._rules.append(rule)
        self._by_name[rule.name] = rule

    def extend(self, rules: Sequence[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    def get(self, name: str) -> Rule:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no rule named {name!r}") from None

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name


# -- parsing ----------------------------------------------------------------


_XSD_COERCIONS: Dict[str, Callable[[str], Any]] = {
    "xsd:double": float,
    "xsd:float": float,
    "xsd:decimal": float,
    "xsd:int": int,
    "xsd:integer": int,
    "xsd:long": int,
    "xsd:boolean": lambda s: s.strip().lower() in ("true", "1"),
    "xsd:string": str,
}


def parse_term(text: str) -> PatternTerm:
    """Parse one rule term: variable, typed/plain literal, number or QName."""
    text = text.strip()
    if not text:
        raise RuleParseError("empty term")
    if text.startswith("?"):
        if len(text) == 1:
            raise RuleParseError("bare '?' is not a variable")
        return text
    if text[0] in "'\"":
        quote = text[0]
        end = text.find(quote, 1)
        if end < 0:
            raise RuleParseError(f"unterminated literal: {text!r}")
        value_text = text[1:end]
        rest = text[end + 1:]
        if rest.startswith("^^"):
            datatype = rest[2:].strip()
            coerce = _XSD_COERCIONS.get(datatype, str)
            try:
                return Literal(coerce(value_text), datatype)
            except ValueError as exc:
                raise RuleParseError(f"bad {datatype} literal {value_text!r}") from exc
        if rest:
            raise RuleParseError(f"trailing text after literal: {text!r}")
        return Literal(value_text)
    try:
        return Literal(int(text), "xsd:integer")
    except ValueError:
        pass
    try:
        return Literal(float(text), "xsd:double")
    except ValueError:
        pass
    return text


def _split_top_level(text: str, separator: str = ",") -> List[str]:
    """Split on ``separator`` outside parentheses and quotes."""
    parts: List[str] = []
    depth = 0
    quote = ""
    current: List[str] = []
    for ch in text:
        if quote:
            current.append(ch)
            if ch == quote:
                quote = ""
            continue
        if ch in "'\"":
            quote = ch
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise RuleParseError(f"unbalanced ')' in {text!r}")
            current.append(ch)
        elif ch == separator and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise RuleParseError(f"unbalanced '(' in {text!r}")
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _split_terms(text: str) -> List[str]:
    """Split a pattern's interior on whitespace, respecting quotes."""
    terms: List[str] = []
    current: List[str] = []
    quote = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if quote:
            current.append(ch)
            if ch == quote:
                quote = ""
        elif ch in "'\"":
            quote = ch
            current.append(ch)
        elif ch.isspace():
            if current:
                terms.append("".join(current))
                current = []
        else:
            current.append(ch)
        i += 1
    if current:
        terms.append("".join(current))
    return terms


def _parse_clause(text: str) -> BodyClause:
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise RuleParseError(f"unterminated pattern: {text!r}")
        inner = text[1:-1].strip()
        terms = _split_terms(inner)
        if len(terms) != 3:
            raise RuleParseError(
                f"pattern must have 3 terms, got {len(terms)}: {text!r}")
        return TriplePattern(*(parse_term(t) for t in terms))
    open_paren = text.find("(")
    if open_paren <= 0 or not text.endswith(")"):
        raise RuleParseError(f"cannot parse clause: {text!r}")
    name = text[:open_paren].strip()
    inner = text[open_paren + 1:-1]
    args = tuple(parse_term(a) for a in _split_top_level(inner))
    return BuiltinCall(name, args)


def parse_rule(text: str) -> Rule:
    """Parse one ``[Name: body -> head]`` rule."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise RuleParseError(f"rule must be wrapped in [...]: {text!r}")
    inner = stripped[1:-1].strip()
    colon = inner.find(":")
    if colon < 0:
        raise RuleParseError(f"rule missing 'Name:' prefix: {text!r}")
    name = inner[:colon].strip()
    if not name:
        raise RuleParseError(f"empty rule name: {text!r}")
    rest = inner[colon + 1:]
    arrow = rest.find("->")
    if arrow < 0:
        raise RuleParseError(f"rule missing '->': {text!r}")
    body_text, head_text = rest[:arrow], rest[arrow + 2:]
    body = tuple(_parse_clause(c) for c in _split_top_level(body_text))
    head_clauses = tuple(_parse_clause(c) for c in _split_top_level(head_text))
    head: List[TriplePattern] = []
    for clause in head_clauses:
        if not isinstance(clause, TriplePattern):
            raise RuleParseError(f"builtin {clause} not allowed in rule head")
        head.append(clause)
    return Rule(name, body, tuple(head))


def parse_rules(text: str) -> RuleSet:
    """Parse a whole rule file: any number of ``[...]`` blocks; ``#`` and
    ``//`` line comments are ignored."""
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#") or stripped.startswith("//"):
            continue
        lines.append(line)
    joined = "\n".join(lines)
    rules = RuleSet()
    depth = 0
    start = -1
    for i, ch in enumerate(joined):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise RuleParseError("unbalanced ']' in rule text")
            if depth == 0:
                rules.add(parse_rule(joined[start:i + 1]))
    if depth != 0:
        raise RuleParseError("unbalanced '[' in rule text")
    return rules
