"""Frozen copy of the forward-chaining join before its compiled rewrite,
kept as a differential oracle.

``_match_pattern``, ``_evaluate_body`` and ``ForwardChainingReasoner``
reproduce the replaced code verbatim.  The per-call pattern helpers they
used (``TriplePattern.substitute`` / ``to_triple`` / ``variables``,
``Rule.patterns`` / ``skolem_variables``, ``BuiltinCall.variables`` /
``evaluate``) are frozen here as plain functions too, so the oracle does
not lean on the live versions it checks.  Do not "fix" or speed these up:
their only job is to stay what the old code was.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ontology.reasoner import Derivation
from repro.ontology.rules import (
    BUILTIN_REGISTRY,
    Bindings,
    BuiltinCall,
    GRAPH_BUILTINS,
    Rule,
    RuleParseError,
    RuleSet,
    TriplePattern,
)
from repro.ontology.schema import SchemaReasoner
from repro.ontology.triples import Graph, Literal, Term, Triple, is_variable


# -- the per-call helpers ----------------------------------------------------


def pattern_terms(pattern: TriplePattern):
    return (pattern.subject, pattern.predicate, pattern.object)


def pattern_variables(pattern: TriplePattern) -> List[str]:
    return [t for t in pattern_terms(pattern) if is_variable(t)]


def substitute(pattern: TriplePattern, bindings: Bindings) -> TriplePattern:
    """Replace bound variables; unbound variables stay as-is."""

    def sub(term):
        if is_variable(term):
            return bindings.get(term, term)
        return term

    return TriplePattern(sub(pattern.subject), sub(pattern.predicate),
                         sub(pattern.object))


def to_triple(pattern: TriplePattern,
              bindings: Optional[Bindings] = None) -> Triple:
    """Ground this pattern into a Triple; raises if variables remain."""
    grounded = substitute(pattern, bindings) if bindings else pattern
    for term in pattern_terms(grounded):
        if is_variable(term):
            raise RuleParseError(f"unbound variable {term!r} in {grounded}")
    subject, predicate = grounded.subject, grounded.predicate
    if isinstance(subject, Literal) or isinstance(predicate, Literal):
        raise RuleParseError(f"literal in subject/predicate of {grounded}")
    return Triple(subject, predicate, grounded.object)


def rule_patterns(rule: Rule) -> List[TriplePattern]:
    return [c for c in rule.body if isinstance(c, TriplePattern)]


def rule_builtins(rule: Rule) -> List[BuiltinCall]:
    return [c for c in rule.body if isinstance(c, BuiltinCall)]


def skolem_variables(rule: Rule) -> List[str]:
    """Head variables not bound by any body pattern."""
    bound = {v for p in rule_patterns(rule) for v in pattern_variables(p)}
    seen: List[str] = []
    for template in rule.head:
        for var in pattern_variables(template):
            if var not in bound and var not in seen:
                seen.append(var)
    return seen


def call_variables(call: BuiltinCall) -> List[str]:
    return [a for a in call.args if is_variable(a)]


def evaluate(call: BuiltinCall, bindings: Bindings, graph=None) -> bool:
    """``BuiltinCall.evaluate`` with the default registry."""
    if call.name in GRAPH_BUILTINS:
        return _evaluate_graph_builtin(call, bindings, graph)
    functions = BUILTIN_REGISTRY
    try:
        function = functions[call.name]
    except KeyError:
        raise RuleParseError(f"unknown builtin {call.name!r}") from None
    resolved: List[Term] = []
    for arg in call.args:
        if is_variable(arg):
            if arg not in bindings:
                return False
            resolved.append(bindings[arg])
        else:
            resolved.append(arg)
    try:
        return bool(function(*resolved))
    except TypeError:
        return False


def _evaluate_graph_builtin(call: BuiltinCall, bindings: Bindings,
                            graph) -> bool:
    if graph is None:
        raise RuleParseError(
            f"builtin {call.name!r} needs graph access; evaluate it "
            f"through the reasoner")
    if len(call.args) != 3:
        raise RuleParseError(
            f"{call.name} takes (subject, predicate, object); got "
            f"{len(call.args)} args")

    def resolve(term):
        if is_variable(term):
            return bindings.get(term)  # None -> wildcard
        return term

    subject, predicate, obj = (resolve(a) for a in call.args)
    if isinstance(subject, Literal) or isinstance(predicate, Literal):
        return True  # such a triple cannot exist
    for _ in graph.match(subject, predicate, obj):
        return False
    return True


# -- the join ----------------------------------------------------------------


def _match_pattern(graph: Graph, pattern: TriplePattern,
                   bindings: Bindings) -> Iterator[Bindings]:
    """Yield extended bindings for every triple matching ``pattern``."""
    bound = substitute(pattern, bindings)

    def as_query(term):
        return None if is_variable(term) else term

    subject = as_query(bound.subject)
    predicate = as_query(bound.predicate)
    obj = as_query(bound.object)
    if isinstance(subject, Literal) or isinstance(predicate, Literal):
        return  # a literal can never occupy subject/predicate position
    for triple in graph.match(subject, predicate, obj):
        extended = dict(bindings)
        consistent = True
        for term, value in zip(pattern_terms(bound), triple):
            if is_variable(term):
                if term in extended and extended[term] != value:
                    consistent = False
                    break
                extended[term] = value
        if consistent:
            yield extended


def _evaluate_body(graph: Graph, rule: Rule,
                   pivot: Optional[int] = None,
                   delta: Optional[Graph] = None
                   ) -> Iterator[Tuple[Bindings, Tuple[Triple, ...]]]:
    """Yield (bindings, supporting triples) for each full body match."""
    clauses = list(rule.body)
    pivot_clause = -1
    if pivot is not None:
        pattern_seen = -1
        for i, clause in enumerate(clauses):
            if isinstance(clause, TriplePattern):
                pattern_seen += 1
                if pattern_seen == pivot:
                    pivot_clause = i
                    break

    def recurse(index: int, bindings: Bindings, supports: Tuple[Triple, ...],
                pending: List[BuiltinCall]) -> Iterator[Tuple[Bindings, Tuple[Triple, ...]]]:
        still_pending: List[BuiltinCall] = []
        for call in pending:
            if all(v in bindings for v in call_variables(call)):
                if not evaluate(call, bindings, graph=graph):
                    return
            else:
                still_pending.append(call)
        if index == len(clauses):
            for call in still_pending:
                if not evaluate(call, bindings, graph=graph):
                    return
            yield bindings, supports
            return
        clause = clauses[index]
        if isinstance(clause, BuiltinCall):
            if clause.name in GRAPH_BUILTINS:
                if not evaluate(clause, bindings, graph=graph):
                    return
                yield from recurse(index + 1, bindings, supports,
                                   still_pending)
                return
            yield from recurse(index + 1, bindings, supports,
                               still_pending + [clause])
            return
        source = delta if index == pivot_clause and delta is not None \
            else graph
        for extended in _match_pattern(source, clause, bindings):
            grounded = to_triple(clause, extended)
            yield from recurse(index + 1, extended, supports + (grounded,),
                               still_pending)

    yield from recurse(0, {}, (), [])


class ForwardChainingReasoner:
    """Fixpoint forward chaining with derivation tracking."""

    def __init__(self, rules: RuleSet, schema: bool = True,
                 max_rounds: int = 1000, strategy: str = "seminaive"):
        if strategy not in ("naive", "seminaive"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.rules = rules
        self.schema = schema
        self.max_rounds = max_rounds
        self.strategy = strategy
        self.derivations: Dict[Triple, Derivation] = {}
        self.rounds_run = 0
        self.rule_firings = 0

    def run(self, graph: Graph, in_place: bool = False) -> Graph:
        if self.schema:
            working = SchemaReasoner(graph).materialize()
        else:
            working = graph if in_place else graph.copy()
        self.derivations = {}
        self.rounds_run = 0
        self.rule_firings = 0
        delta: Optional[Graph] = None
        for _ in range(self.max_rounds):
            self.rounds_run += 1
            use_delta = delta if self.strategy == "seminaive" else None
            rule_added = self._round(working, use_delta)
            if not rule_added:
                return working
            if self.schema:
                before = set(working)
                working = SchemaReasoner(working).materialize()
                schema_added = [t for t in working if t not in before]
                delta = Graph(rule_added + schema_added)
            else:
                delta = Graph(rule_added)
        raise RuntimeError(
            f"rules did not reach fixpoint within {self.max_rounds} rounds")

    @staticmethod
    def _skolemize(rule: Rule, bindings: Bindings) -> Bindings:
        skolems = skolem_variables(rule)
        if not skolems:
            return bindings
        key = hashlib.md5(
            repr((rule.name, sorted(bindings.items(), key=lambda kv: kv[0])))
            .encode()).hexdigest()[:12]
        extended = dict(bindings)
        for var in skolems:
            extended[var] = f"_:{rule.name}.{var[1:]}.{key}"
        return extended

    def _round(self, graph: Graph,
               delta: Optional[Graph] = None) -> List[Triple]:
        new_triples: List[Tuple[Triple, Derivation]] = []
        for rule in self.rules:
            for bindings, supports in self._rule_matches(graph, rule, delta):
                self.rule_firings += 1
                bindings = self._skolemize(rule, bindings)
                for template in rule.head:
                    triple = to_triple(template, bindings)
                    if triple not in graph:
                        derivation = Derivation(
                            triple, rule.name,
                            tuple(sorted(bindings.items())), supports)
                        new_triples.append((triple, derivation))
        added: List[Triple] = []
        for triple, derivation in new_triples:
            if graph.add(triple):
                self.derivations.setdefault(triple, derivation)
                added.append(triple)
        return added

    def _rule_matches(self, graph: Graph, rule: Rule,
                      delta: Optional[Graph]
                      ) -> Iterator[Tuple[Bindings, Tuple[Triple, ...]]]:
        patterns = rule_patterns(rule)
        naive = (delta is None or not patterns
                 or any(c.name in GRAPH_BUILTINS for c in rule_builtins(rule)))
        if naive:
            yield from _evaluate_body(graph, rule)
            return
        if len(delta) == 0:
            return
        seen = set()
        for pivot in range(len(patterns)):
            for bindings, supports in _evaluate_body(graph, rule,
                                                     pivot=pivot,
                                                     delta=delta):
                key = tuple(sorted(bindings.items(),
                                   key=lambda kv: kv[0]))
                if key in seen:
                    continue
                seen.add(key)
                yield bindings, supports

    def explain(self, triple: Triple) -> Optional[Derivation]:
        return self.derivations.get(triple)
