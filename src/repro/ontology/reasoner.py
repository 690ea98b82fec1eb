"""Forward-chaining rule engine (the Jena replacement).

Runs a :class:`~repro.ontology.rules.RuleSet` over a
:class:`~repro.ontology.triples.Graph` to a fixpoint, optionally after
schema materialization, and records one :class:`Derivation` per inferred
triple so decisions are explainable -- the paper's autonomous agents justify
migration commands with the rule that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ontology.rules import (
    BUILTIN_REGISTRY,
    Bindings,
    BuiltinCall,
    GRAPH_BUILTINS,
    Rule,
    RuleSet,
    TriplePattern,
)
from repro.ontology.schema import SchemaReasoner
from repro.ontology.triples import Graph, Literal, Triple


@dataclass(frozen=True)
class Derivation:
    """Provenance of one inferred triple."""

    triple: Triple
    rule_name: str
    bindings: Tuple[Tuple[str, object], ...]
    supports: Tuple[Triple, ...] = field(default=())

    def binding(self, variable: str) -> object:
        for name, value in self.bindings:
            if name == variable:
                return value
        raise KeyError(variable)


def _resolve(pattern: TriplePattern, bindings: Bindings):
    """The graph query for ``pattern`` under ``bindings`` (``None`` for a
    free position) and its free ``(position, variable)`` slots."""
    query = []
    free = []
    for position, (term, variable) in enumerate(pattern.plan):
        if variable:
            value = bindings.get(term)
            if value is None:
                free.append((position, term))
            query.append(value)
        else:
            query.append(term)
    return query, free


def _match_triples(graph: Graph, pattern: TriplePattern, bindings: Bindings
                   ) -> Iterator[Tuple[Bindings, Triple]]:
    """Yield ``(extended bindings, matched triple)`` for every triple
    matching ``pattern``; a variable repeated in the pattern must take
    the same value at each of its positions."""
    (subject, predicate, obj), free = _resolve(pattern, bindings)
    if isinstance(subject, Literal) or isinstance(predicate, Literal):
        return  # a literal can never occupy subject/predicate position
    for triple in graph.match(subject, predicate, obj):
        extended = dict(bindings)
        if free:
            values = (triple.subject, triple.predicate, triple.object)
            for position, variable in free:
                value = values[position]
                seen = extended.get(variable)
                if seen is None:
                    extended[variable] = value
                elif seen != value:
                    break
            else:
                yield extended, triple
        else:
            yield extended, triple


def _match_pattern(graph: Graph, pattern: TriplePattern,
                   bindings: Bindings) -> Iterator[Bindings]:
    """Yield extended bindings for every triple matching ``pattern``."""
    for extended, _triple in _match_triples(graph, pattern, bindings):
        yield extended


def _evaluate_body(graph: Graph, rule: Rule,
                   pivot: Optional[int] = None,
                   delta: Optional[Graph] = None
                   ) -> List[Tuple[Bindings, Tuple[Triple, ...]]]:
    """Every full body match as (bindings, supporting triples), in join
    order.

    Triple patterns join in body order along the rule's compiled
    :attr:`~repro.ontology.rules.Rule.steps`; each functional builtin runs
    as soon as all of its variables are bound, pruning the search early,
    and graph builtins (``noValue``) run in body order: variables bound so
    far constrain the match, the rest are wildcards (Jena's
    negation-as-failure semantics).  The supports are the matched graph
    triples themselves.

    When ``pivot``/``delta`` are given (semi-naive evaluation), the
    ``pivot``-th *triple pattern* of the body is matched against ``delta``
    (the triples added last round) instead of the full graph, so only rule
    instances that touch new facts are re-derived.
    """
    steps = rule.steps
    pivot_step = -1
    if pivot is not None and delta is not None:
        seen = -1
        for index, (_ready, clause) in enumerate(steps):
            if isinstance(clause, TriplePattern):
                seen += 1
                if seen == pivot:
                    pivot_step = index
                    break
    matches: List[Tuple[Bindings, Tuple[Triple, ...]]] = []

    def extend(index: int, bindings: Bindings,
               supports: Tuple[Triple, ...]) -> None:
        ready, clause = steps[index]
        for call in ready:
            if not call.evaluate(bindings, graph=graph):
                return
        if clause is None:
            matches.append((bindings, supports))
        elif isinstance(clause, BuiltinCall):
            if clause.evaluate(bindings, graph=graph):
                extend(index + 1, bindings, supports)
        else:
            source = delta if index == pivot_step else graph
            for extended, triple in _match_triples(source, clause, bindings):
                extend(index + 1, extended, supports + (triple,))

    extend(0, {}, ())
    return matches


def _misses(delta: Graph, pattern: TriplePattern) -> bool:
    """True when ``pattern``, all its variables left free, matches nothing
    in ``delta``: the pivot can then produce no body match at all."""
    (subject, predicate, obj), _free = _resolve(pattern, {})
    if isinstance(subject, Literal) or isinstance(predicate, Literal):
        return True
    for _triple in delta.match(subject, predicate, obj):
        return False
    return True


class ForwardChainingReasoner:
    """Fixpoint forward chaining with derivation tracking.

    ``run()`` mutates the *working* graph (a copy unless ``in_place``) and
    returns it; ``derivations`` maps each inferred triple to how it was
    produced.  A ``max_rounds`` guard protects against pathological rule
    sets.

    Two evaluation strategies:

    - ``"seminaive"`` (default): after the first round, each rule joins one
      body pattern against only the *delta* (triples added last round), so
      work per round is proportional to new facts -- the classic Datalog
      optimization.  Rules using graph builtins (``noValue``) fall back to
      naive evaluation, since negation-as-failure must see the whole
      closure each round.
    - ``"naive"``: re-join everything every round (reference behaviour).

    Both strategies produce identical closures (differential-tested).
    """

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
        """Apply schema entailment (if enabled) then rules to fixpoint."""
        if self.schema:
            working = SchemaReasoner(graph).materialize()
        else:
            working = graph if in_place else graph.copy()
        self.derivations = {}
        self.rounds_run = 0
        self.rule_firings = 0
        delta: Optional[Graph] = None  # None = first round, match everything
        for _ in range(self.max_rounds):
            self.rounds_run += 1
            use_delta = delta if self.strategy == "seminaive" else None
            rule_added = self._round(working, use_delta)
            if not rule_added:
                return working
            if self.schema:
                # New facts may trigger further schema entailments
                # (e.g. a derived rdf:type propagating up the hierarchy).
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
        """Bind the rule's unbound head variables to deterministic fresh
        individuals (stable per body match, so fixpoint iteration is
        idempotent)."""
        skolems = rule._skolems
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
        """One fixpoint round; returns the triples actually added.

        With a ``delta`` graph, rules are evaluated semi-naively: each
        triple pattern takes one turn as the pivot matched against the
        delta, and duplicate body matches across pivots are de-duplicated.
        """
        new_triples: List[Tuple[Triple, Derivation]] = []
        for rule in self.rules:
            for bindings, supports in self._rule_matches(graph, rule, delta):
                self.rule_firings += 1
                bindings = self._skolemize(rule, bindings)
                for template in rule.head:
                    triple = template.to_triple(bindings)
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
        patterns = rule._patterns
        naive = (delta is None or not patterns
                 or any(c.name in GRAPH_BUILTINS for c in rule._builtins))
        if naive:
            yield from _evaluate_body(graph, rule)
            return
        if len(delta) == 0:
            return
        # Skipping a pivot that cannot match is exact only while no builtin
        # it would have run can raise (an unknown builtin name does).
        skippable = all(c.name in BUILTIN_REGISTRY for c in rule._builtins)
        seen = set()
        for pivot, pattern in enumerate(patterns):
            if skippable and _misses(delta, pattern):
                continue
            for bindings, supports in _evaluate_body(graph, rule,
                                                     pivot=pivot,
                                                     delta=delta):
                key = frozenset(bindings.items())
                if key in seen:
                    continue
                seen.add(key)
                yield bindings, supports

    def explain(self, triple: Triple) -> Optional[Derivation]:
        """The derivation that first produced ``triple`` (None if asserted)."""
        return self.derivations.get(triple)


class InferredGraph:
    """Convenience bundle: asserted graph + rules, queried post-inference.

    Re-runs inference lazily after mutations::

        ig = InferredGraph(graph, rules)
        ig.holds(s, p, o)      # checks the inferred closure
    """

    def __init__(self, graph: Graph, rules: RuleSet, schema: bool = True):
        self.asserted = graph
        self.reasoner = ForwardChainingReasoner(rules, schema=schema)
        self._closure: Optional[Graph] = None

    def invalidate(self) -> None:
        """Call after mutating the asserted graph."""
        self._closure = None

    def assert_(self, subject: str, predicate: str, obj) -> None:
        self.asserted.assert_(subject, predicate, obj)
        self.invalidate()

    @property
    def closure(self) -> Graph:
        if self._closure is None:
            self._closure = self.reasoner.run(self.asserted)
        return self._closure

    def holds(self, subject: str, predicate: str, obj) -> bool:
        return self.closure.holds(subject, predicate, obj)

    def match(self, subject=None, predicate=None, obj=None):
        return self.closure.match(subject, predicate, obj)

    def explain(self, triple: Triple) -> Optional[Derivation]:
        self.closure  # ensure inference ran
        return self.reasoner.explain(triple)
