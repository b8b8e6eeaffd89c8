"""Practical decisions over the compiler's argument index agree with the
argument graph.

``analyze_practical`` numbers the arguments from the rules without deriving
them and runs the semantics on each argument's attackers, indexed by its
support action.  The reference below is the argument-level pipeline it
replaced, kept here: derive_arguments -> compute_attacks ->
acceptance_status, with the explanation record built from that argument
graph.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdarg.aba
import vdarg.frameworks
from vdarg import (
    ActionMatrix,
    Disjunct,
    DutyVector,
    Principle,
    Situation,
    VdaAgent,
    VdaLanguage,
    acceptance_status,
    analyze_practical,
    explain_all_actions,
    practical_framework,
    render_text,
)
from vdarg.aba import Aaf, compute_attacks, derive_arguments, ordered_premises
from vdarg.explain import AttackerCitation, Explanation
from vdarg.oracle import RandomVdaSpec, random_vda
from vdarg.semantics import SEMANTICS

def reference_pipeline(agent: VdaAgent, situation_id: str, semantics: str) -> SimpleNamespace:
    """The argument-level decision: every argument derived, every attack listed."""
    build = practical_framework(agent, situation_id)
    arguments = derive_arguments(build.framework, label="X", keep_conclusions=build.relevant)
    aaf = Aaf(arguments, compute_attacks(arguments, build.framework))
    report = acceptance_status(aaf, semantics)
    actions = agent.language.actions
    action_argument = {arg.conclusion: arg.id for arg in aaf.arguments if arg.conclusion in actions}
    action_status = {}
    for a in actions:
        arg_id = action_argument.get(a)
        action_status[a] = "rejected-a-priori" if arg_id is None else report.statuses[arg_id].status
    return SimpleNamespace(
        build=build, semantics=semantics, aaf=aaf, report=report,
        action_argument=action_argument, action_status=action_status,
        justified_actions={a for a, arg in action_argument.items() if report.statuses[arg].in_all},
        credulous_actions={a for a, arg in action_argument.items() if report.statuses[arg].in_some},
    )


def reference_explanation(ref: SimpleNamespace, action: str) -> Explanation:
    """The explanation record as read off the argument graph."""
    build = ref.build
    agent = build.agent
    duty_names = {d: d for d in agent.language.duties} | dict(agent.duty_names)
    matrix = agent.matrix_for(build.situation_id)
    principle = agent.require_principle()
    report, aaf = ref.report, ref.aaf
    attackers_of = aaf.attackers_of
    row_of = {rule.id: row for rule, row in zip(build.framework.rules, build.rows, strict=True)}

    def principle_row(att_id):
        """The (source, target, disjunct) row of a principle rule's argument, else Nones."""
        row = row_of.get(aaf.argument(att_id).tree.rule_id or "")
        return row if row is not None and row[2] is not None else (None, None, None)

    def citation(att_id, extensions):
        att = aaf.argument(att_id)
        source, target, disjunct = principle_row(att_id)
        return AttackerCitation(
            argument_id=att_id,
            conclusion=att.conclusion,
            premises=tuple(ordered_premises(att.premises, build.display_order)),
            extensions=extensions,
            counter_attackers=tuple(c for c in attackers_of[att_id] if report.statuses[c].in_some),
            disjunct=disjunct,
            disjunct_bounds=tuple(principle.by_id(disjunct).bounds.items()) if disjunct else None,
            source_action=source,
            source_vector=tuple(matrix.vector(source).values.items()) if source else None,
            target_vector=tuple(matrix.vector(target).values.items()) if target else None,
        )

    def rank(att_id):
        source, _, disjunct = principle_row(att_id)
        if disjunct is not None:
            return (principle.index_of(disjunct), source or "")
        return (len(principle.disjuncts), att_id)

    def rejection(arg_id):
        chosen = {}
        for label, ext in report.labelled():
            accepted = [a for a in attackers_of[arg_id] if a in ext.members]
            if not accepted:
                return None
            best = min(accepted, key=rank)
            if best in chosen:
                chosen[best] = replace(chosen[best], extensions=chosen[best].extensions + (label,))
            else:
                chosen[best] = citation(best, (label,))
        return tuple(chosen.values()) or None

    arg_id = ref.action_argument.get(action)
    premises = extensions = attackers = defenders = ()
    if arg_id is None:
        verdict = "rejected-a-priori"
    else:
        premises = tuple(ordered_premises(aaf.argument(arg_id).premises, build.display_order))
        status = report.statuses[arg_id]
        rejected = None if status.in_some else rejection(arg_id)
        if rejected is not None:
            verdict, attackers = "rejected", rejected
            extensions = tuple(label for label, _ in report.labelled())
        else:
            verdict = (
                "justified-skeptical" if status.in_all
                else "justified-credulous" if status.in_some else "indeterminate"
            )
            extensions = report.extension_labels_containing(arg_id)
            attackers = tuple(
                citation(a, report.extension_labels_containing(a)) for a in attackers_of[arg_id]
            )
            if status.in_some:
                defenders = tuple(
                    sorted({c for att in attackers for c in att.counter_attackers}, key=aaf.index.__getitem__)
                )
    expl = Explanation(
        subject=action, kind="action", verdict=verdict, argument_id=arg_id,
        premises=premises, extensions=extensions, attackers=attackers,
        defenders=defenders, semantics=ref.semantics,
    )
    return replace(expl, text=render_text(expl, duty_names))


def assert_agrees_with_reference(agent: VdaAgent, situation_id: str, semantics: str) -> None:
    ref = reference_pipeline(agent, situation_id, semantics)
    result = analyze_practical(agent, situation_id, semantics)
    explanations = explain_all_actions(result)  # before the argument graph exists
    assert "aaf" not in vars(result)

    assert result.action_status == ref.action_status
    assert list(result.action_status) == list(ref.action_status)
    assert result.action_argument == ref.action_argument
    assert result.justified_actions == ref.justified_actions
    assert result.credulous_actions == ref.credulous_actions
    assert explanations == tuple(reference_explanation(ref, a) for a in agent.language.actions)

    # The argument ids the compiler numbers are the ones derivation gives.
    assert list(result.build.arguments) == list(ref.aaf.ids)
    rule_id = {row: f"r{k}" for k, row in enumerate(result.build.rows, 1)}
    assert [rule_id[row] for row in result.build.arguments.values()] == [
        arg.tree.rule_id for arg in ref.aaf.arguments
    ]
    for target, attackers in result.build.attackers_of.items():
        assert attackers == ref.aaf.attackers_of[result.action_argument[target]]

    # The decision over the argument index equals the argument-level report, in order.
    assert result.aaf == ref.aaf
    assert [e.members for e in result.report.extensions] == [e.members for e in ref.report.extensions]
    assert list(result.report.statuses.items()) == list(ref.report.statuses.items())
    # Each argument holds its support action's status record, not a copy.
    statuses = result.report.statuses
    assert all(statuses[x] is statuses[result.action_argument[result.build.arguments[x][0]]] for x in statuses)
    assert (result.report.vacuous, result.report.diagnostic) == (ref.report.vacuous, ref.report.diagnostic)


def make_agent(rows: dict[str, tuple[int, ...]], bounds: list[tuple[int, ...]]) -> VdaAgent:
    duties = tuple(f"d{i + 1}" for i in range(len(next(iter(rows.values())))))
    return VdaAgent(
        language=VdaLanguage(("p",), tuple(rows), duties),
        situations={"R": Situation.from_perceptions(("p",), ())},
        matrices={"R": ActionMatrix("R", {
            a: DutyVector(a, dict(zip(duties, row))) for a, row in rows.items()
        })},
        principle=Principle(tuple(
            Disjunct(f"u{i + 1}", dict(zip(duties, b))) for i, b in enumerate(bounds)
        )),
        value_range=(-2, 2),
    )


@st.composite
def agents(draw) -> VdaAgent:
    n_actions = draw(st.integers(1, 6))
    n_duties = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-2, 2)] * n_duties)
    rows = draw(st.lists(row, min_size=n_actions, max_size=n_actions))
    bounds = draw(st.lists(st.tuples(*[st.integers(-4, 2)] * n_duties), min_size=1, max_size=3))
    return make_agent({f"a{i + 1}": r for i, r in enumerate(rows)}, bounds)


@settings(max_examples=150, deadline=None)
@given(agent=agents(), semantics=st.sampled_from(SEMANTICS))
def test_random_agents_agree_with_the_argument_graph(agent, semantics):
    assert_agrees_with_reference(agent, "R", semantics)


# Named inputs, each under all four semantics.
NON_QUALIFYING_SOURCE = make_agent({"a": (1, 0), "b": (0, 0)}, [(-1, 0)])
NOTHING_QUALIFIES = make_agent({"a": (0, -1), "b": (-1, 0), "c": (-2, -2)}, [(0, 0), (1, -2)])
# a1 -> a2 -> a3 -> a1 in weak preference: an odd attack cycle, so stable is vacuous.
ODD_CYCLE = make_agent({"a1": (1, 0), "a2": (-1, 1), "a3": (-2, 2)}, [(-4, 2), (0, -1)])


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("agent", [NON_QUALIFYING_SOURCE, NOTHING_QUALIFIES, ODD_CYCLE],
                         ids=["non-qualifying-source", "nothing-qualifies", "odd-cycle"])
def test_named_inputs_agree_with_the_argument_graph(agent, semantics):
    assert_agrees_with_reference(agent, "R", semantics)


def test_the_named_inputs_have_their_shape():
    assert practical_framework(NOTHING_QUALIFIES, "R").assumption_actions == ("a", "b", "c")
    assert analyze_practical(ODD_CYCLE, "R", "stable").report.vacuous


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("sid", ["S1", "S2J"])
def test_eldercare_agrees_with_the_argument_graph(eldercare, sid, semantics):
    assert_agrees_with_reference(eldercare, sid, semantics)


@pytest.mark.parametrize("seed", range(40))
def test_random_vda_agents_agree_with_the_argument_graph(seed):
    agent, sid = random_vda(RandomVdaSpec(seed=seed, actions=5, duties=3))
    for semantics in SEMANTICS:
        assert_agrees_with_reference(agent, sid, semantics)


class TestDecisionBuildsNoArguments:
    """Deciding and explaining never derive arguments or list attacks; the
    argument graph is built when ``result.aaf`` is first read."""

    @staticmethod
    def _refuse(*_args, **_kwargs):
        raise AssertionError("the decision path must not build the argument graph")

    def test_decide_and_explain_with_the_builders_stubbed(self, eldercare, monkeypatch):
        for module in (vdarg.aba, vdarg.frameworks):
            monkeypatch.setattr(module, "derive_arguments", self._refuse)
            monkeypatch.setattr(module, "compute_attacks", self._refuse)
        inputs = [(eldercare, "S1"), (eldercare, "S2J")]
        inputs += [random_vda(RandomVdaSpec(seed=seed, actions=5)) for seed in range(10)]
        results = []
        for agent, sid in inputs:
            for semantics in SEMANTICS:
                result = analyze_practical(agent, sid, semantics)
                explain_all_actions(result)
                results.append(result)
        monkeypatch.undo()
        for result in results:
            assert "aaf" not in vars(result)
            assert result.aaf.arguments  # built now, by the real functions
            assert len(result.report.statuses) == len(result.aaf.arguments)


def test_decide_and_explain_leave_the_framework_and_the_argument_graph_unbuilt(eldercare):
    """Deciding and explaining read the rows, so neither builds the ABA
    framework view or the argument graph."""
    inputs = [(eldercare, "S1"), (eldercare, "S2J")]
    inputs += [random_vda(RandomVdaSpec(seed=seed, actions=5)) for seed in range(10)]
    for agent, sid in inputs:
        for semantics in SEMANTICS:
            result = analyze_practical(agent, sid, semantics)
            explain_all_actions(result)
            assert "framework" not in vars(result.build)
            assert "aaf" not in vars(result)
