"""Default rule sets for autonomous agents (paper Fig. 6).

The three published rules, verbatim in structure:

- Rule 1: ``locatedIn`` is transitive.
- Rule 2: resources of the same printer type are compatible.
- Rule 3: if source and destination resources are compatible and the
  network's response time is below a threshold (1000 ms in the paper), issue
  a ``move`` action.

:func:`default_migration_rules` generalizes Rule 2 to any resource class
(the compatibility facts themselves come from the semantic matcher) and
parameterizes Rule 3's threshold.
"""

from __future__ import annotations

import functools
from typing import Tuple

from repro.ontology.rules import Rule, RuleSet, parse_rules

#: The paper's rules exactly as printed (Fig. 6), printer-specific Rule 2.
PAPER_FIG6_RULES = """
[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t)
     -> (?p imcl:locatedIn ?t)]
[Rule2: (?ptr imcl:printerObj 'printer'), (?srcRsc rdf:type ?ptr),
        (?destRsc imcl:printerObj ?ptr)
     -> (?srcRsc imcl:compatible ?destRsc)]
[Rule3: (?addr1 imcl:address ?value1), (?addr2 imcl:address ?value2),
        (?srcRsc imcl:compatible ?destRsc), (?n imcl:responseTime ?t),
        lessThan(?t, '1000'^^xsd:double)
     -> (?action imcl:actName 'move'), (?action imcl:srcAddress ?value1),
        (?action imcl:destAddress ?value2)]
"""


def paper_rules() -> RuleSet:
    """The verbatim Fig. 6 rule set."""
    return parse_rules(PAPER_FIG6_RULES)


def default_migration_rules(response_time_threshold_ms: float = 1000.0
                            ) -> RuleSet:
    """The rule set autonomous agents evaluate before commanding a move.

    Facts the decision engine asserts:

    - ``(imcl:src imcl:address '<source host>')`` /
      ``(imcl:dest imcl:address '<destination host>')``
    - ``(imcl:link imcl:responseTime '<rtt>'^^xsd:double)``
    - ``(<srcRsc> imcl:compatible <destRsc>)`` for each semantic match
    - ``(imcl:dest imcl:hasComponents 'true'/'false'^^xsd:boolean)``
    - ``(imcl:dest imcl:deviceCompatible 'true'/'false'^^xsd:boolean)``

    Derived actions:

    - ``move`` when the device fits and the network is fast enough;
    - ``carryAll`` additionally flags that the destination has no
      installation, so logic + UI must be wrapped too (the adaptive-binding
      decision of §5).
    """
    return RuleSet(_migration_rules(float(response_time_threshold_ms)))


@functools.lru_cache(maxsize=None)
def _migration_rules(response_time_threshold_ms: float) -> Tuple[Rule, ...]:
    """The parsed (immutable) rules, once per threshold: every autonomous
    agent gets a fresh :class:`RuleSet` over the same compiled rules."""
    return tuple(parse_rules(f"""
[LocTrans: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t)
        -> (?p imcl:locatedIn ?t)]
[Move: (?src imcl:address ?value1), (?dest imcl:address ?value2),
       (?dest imcl:deviceCompatible 'true'^^xsd:boolean),
       (?net imcl:responseTime ?t),
       lessThan(?t, '{response_time_threshold_ms}'^^xsd:double)
    -> (?action imcl:actName 'move'), (?action imcl:srcAddress ?value1),
       (?action imcl:destAddress ?value2)]
[CarryAll: (?dest imcl:address ?value2),
           (?dest imcl:hasComponents 'false'^^xsd:boolean)
        -> (?dest imcl:carryPolicy 'full')]
[CarryDelta: (?dest imcl:address ?value2),
             (?dest imcl:hasComponents 'true'^^xsd:boolean)
          -> (?dest imcl:carryPolicy 'delta')]
"""))
