"""Differential test: the compiled rule join against the frozen join.

Random rule sets (skolem heads, repeated variables such as ``(?x p ?x)``,
comparison builtins and ``noValue``) run over random graphs, with schema
entailment on and off, under both evaluation strategies.  The live
reasoner must reproduce the frozen one exactly: the same closure, the
same ``derivations`` (supports included, in insertion order), the same
``rule_firings`` and ``rounds_run`` -- or the same error.  ``Query.run``
rows over the closure must match the frozen ``_match_pattern`` too.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.ontology.query as query_module
from repro.ontology.query import Query
from repro.ontology.reasoner import ForwardChainingReasoner
from repro.ontology.rules import (
    BuiltinCall,
    Rule,
    RuleSet,
    TriplePattern,
    parse_rules,
)
from repro.ontology.triples import Graph, Literal, Triple
from tests import frozen_reasoner as frozen

NODES = ["n:a", "n:b", "n:c", "n:d"]
PREDICATES = ["p:r", "p:s", "rdf:type", "rdfs:subClassOf"]
VARIABLES = ["?x", "?y", "?z"]
LITERALS = [Literal(v, "xsd:integer") for v in range(4)]
COMPARISONS = ["lessThan", "greaterThan", "lessThanOrEqual",
               "greaterThanOrEqual", "equal", "notEqual"]

nodes = st.sampled_from(NODES)
variables = st.sampled_from(VARIABLES)
literals = st.sampled_from(LITERALS)
triples = st.builds(Triple, nodes, st.sampled_from(PREDICATES[:3]),
                    st.one_of(nodes, nodes, literals))
any_terms = st.one_of(variables, nodes, st.sampled_from(PREDICATES),
                      literals)


@st.composite
def patterns(draw, facts):
    """A pattern generalized from a fact (so joins find matches), or a
    random one; each position keeps its constant or becomes a variable."""
    if facts and draw(st.integers(0, 4)):
        terms = list(draw(st.sampled_from(facts)))
    else:
        terms = [draw(any_terms) for _ in range(3)]
    return TriplePattern(*(draw(variables) if draw(st.booleans()) else term
                           for term in terms))


@st.composite
def builtin_calls(draw, facts):
    if draw(st.booleans()):
        return BuiltinCall(draw(st.sampled_from(COMPARISONS)),
                           (draw(st.one_of(variables, literals)),
                            draw(st.one_of(variables, literals))))
    return BuiltinCall("noValue", draw(patterns(facts)).terms())


@st.composite
def rules(draw, index, facts):
    clauses = draw(st.lists(patterns(facts), min_size=1, max_size=3))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        clauses.insert(draw(st.integers(0, len(clauses))),
                       draw(builtin_calls(facts)))
    # Head templates use body variables, a skolem variable or constants.
    bound = sorted({v for c in clauses if isinstance(c, TriplePattern)
                    for v in c.variables()})
    head_terms = st.one_of(st.sampled_from(bound + ["?k"]), nodes)
    head = draw(st.lists(st.builds(
        TriplePattern, head_terms, st.sampled_from(PREDICATES[:2]),
        st.one_of(head_terms, literals)), min_size=1, max_size=2))
    return Rule(f"R{index}", tuple(clauses), tuple(head))


@st.composite
def scenarios(draw):
    """(rule set, asserted facts, query patterns)."""
    facts = draw(st.lists(triples, min_size=2, max_size=14))
    rule_set = RuleSet([draw(rules(i, facts))
                        for i in range(draw(st.integers(1, 3)))])
    query = draw(st.lists(patterns(facts), min_size=1, max_size=3))
    return rule_set, facts, query


def outcome(reasoner, facts):
    """Everything observable about one run, or the error it raised."""
    try:
        closure = reasoner.run(Graph(facts))
    except (RuntimeError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc),
                list(reasoner.derivations.items()),
                reasoner.rule_firings, reasoner.rounds_run), None
    return ("ok", set(closure), list(reasoner.derivations.items()),
            reasoner.rule_firings, reasoner.rounds_run), closure


@given(scenario=scenarios(), schema=st.booleans(),
       strategy=st.sampled_from(["naive", "seminaive"]))
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_join_matches_frozen_join(scenario, schema, strategy):
    rule_set, facts, query = scenario
    live, closure = outcome(ForwardChainingReasoner(
        rule_set, schema=schema, max_rounds=6, strategy=strategy), facts)
    old, _ = outcome(frozen.ForwardChainingReasoner(
        rule_set, schema=schema, max_rounds=6, strategy=strategy), facts)
    assert live == old
    if closure is None:
        return
    q = Query(query)
    rows = q.run(closure)
    with mock.patch.object(query_module, "_match_pattern",
                           frozen._match_pattern):
        assert rows == q.run(closure)


#: Rule sets whose derivations feed each other over several rounds, so
#: every semi-naive pivot (and the empty-pivot skip) gets real deltas.
CHAINED_RULES = [
    """[T: (?a p:r ?b), (?b p:r ?c) -> (?a p:r ?c)]
       [S: (?a p:s ?b), (?b p:r ?a) -> (?b p:s ?a)]""",
    """[A: (?x p:r ?y) -> (?x p:reach ?y)]
       [B: (?y p:r ?z), (?x p:reach ?y), notEqual(?x, ?z)
           -> (?x p:reach ?z)]
       [L: (?x p:reach ?x), noValue(?x, p:s, ?y) -> (?x p:loop ?k)]""",
    """[W: (?x p:w ?v), (?x p:r ?y), lessThan(?v, 3) -> (?y p:w ?v)]
       [M: (?x p:w ?v), (?x rdf:type ?c), (?c rdfs:subClassOf ?d)
           -> (?x p:member ?d)]""",
]


@given(rules_text=st.sampled_from(CHAINED_RULES),
       facts=st.lists(st.builds(
           Triple, nodes, st.sampled_from(["p:r", "p:r", "p:r", "p:s",
                                           "rdf:type", "rdfs:subClassOf"]),
           nodes)
           | st.builds(lambda x, v: Triple(x, "p:w", v), nodes, literals),
           min_size=3, max_size=12),
       schema=st.booleans(), strategy=st.sampled_from(["naive", "seminaive"]))
@settings(max_examples=120, deadline=None)
def test_chained_rules_match_frozen_join(rules_text, facts, schema, strategy):
    rule_set = parse_rules(rules_text)
    live, _ = outcome(ForwardChainingReasoner(
        rule_set, schema=schema, strategy=strategy), facts)
    old, _ = outcome(frozen.ForwardChainingReasoner(
        rule_set, schema=schema, strategy=strategy), facts)
    assert live == old


def test_supports_are_the_matched_triples():
    """A repeated variable binds once; the support is the graph triple."""
    rule = Rule("Loop", (TriplePattern("?x", "p:r", "?x"),),
                (TriplePattern("?x", "p:s", "n:a"),))
    graph = Graph([Triple("n:b", "p:r", "n:b"), Triple("n:b", "p:r", "n:c")])
    reasoner = ForwardChainingReasoner(RuleSet([rule]), schema=False)
    closure = reasoner.run(graph)
    assert set(closure.match(None, "p:s", None)) == {
        Triple("n:b", "p:s", "n:a")}
    derivation = reasoner.explain(Triple("n:b", "p:s", "n:a"))
    assert derivation.supports == (Triple("n:b", "p:r", "n:b"),)
    assert derivation.bindings == (("?x", "n:b"),)
