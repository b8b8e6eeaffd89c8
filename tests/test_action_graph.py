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

import random
import runpy
from dataclasses import replace
from pathlib import Path
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
    labelled = report.labelled()
    row_of = {rule.id: row for rule, row in zip(build.framework.rules, build.rows, strict=True)}

    def labels_of(arg_id):
        return tuple(label for label, ext in labelled if arg_id in ext.members)

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
        for label, ext in labelled:
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
            extensions = tuple(label for label, _ in labelled)
        else:
            verdict = (
                "justified-skeptical" if status.in_all
                else "justified-credulous" if status.in_some else "indeterminate"
            )
            extensions = labels_of(arg_id)
            attackers = tuple(citation(a, labels_of(a)) for a in attackers_of[arg_id])
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
    # Each qualifying action's argument, in language order: X1, X2... come first.
    build = result.build
    action_argument = {a: f"X{k}" for k, a in enumerate(build.preference.names(build.qualifying), 1)}

    assert result.action_status == ref.action_status
    assert list(result.action_status) == list(ref.action_status)
    assert action_argument == ref.action_argument
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
        assert attackers == ref.aaf.attackers_of[action_argument[target]]

    # The decision over the argument index equals the argument-level report, in order.
    assert result.aaf == ref.aaf
    assert [e.members for e in result.report.extensions] == [e.members for e in ref.report.extensions]
    assert list(result.report.statuses.items()) == list(ref.report.statuses.items())
    # Each argument holds its support action's status record, not a copy,
    # and that record names the lifted extensions that hold the argument.
    statuses = result.report.statuses
    assert all(statuses[x] is statuses[action_argument[build.arguments[x][0]]] for x in statuses)
    labelled = result.report.labelled()
    assert all(st.extensions == tuple(label for label, ext in labelled if x in ext.members) for x, st in statuses.items())
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


def wide_agent(seed: int, actions: int, slack: int) -> VdaAgent:
    """The benchmark's wide agent, from bench/workloads.py."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))
    return workloads["wide_agent"](seed, actions, slack)


def test_a_wide_agent_agrees_with_the_argument_graph():
    assert_agrees_with_reference(wide_agent(0, 80, 1), "R", "grounded")


def assert_graph_is_the_derived_one(agent: VdaAgent, situation_id: str) -> None:
    """result.aaf, written from the rows, against derive_arguments and
    compute_attacks over the framework the rows write out."""
    result = analyze_practical(agent, situation_id)
    build = result.build
    derived = derive_arguments(build.framework, label="X", keep_conclusions=build.relevant)
    attackers = compute_attacks(derived, build.framework)
    aaf = result.aaf
    assert aaf.arguments == derived
    for written, arg in zip(aaf.arguments, derived, strict=True):
        assert (written.id, written.conclusion, written.proof) == (arg.id, arg.conclusion, arg.proof)
        assert (written.support, written.premises) == (arg.support, arg.premises)
        assert written.tree == arg.tree
        assert written.rules_used == arg.rules_used
    assert list(aaf.attackers_of.items()) == list(attackers.items())

    def sharing(values):
        """Each value's first position among the values of the same identity."""
        first: dict[int, int] = {}
        return [first.setdefault(id(v), i) for i, v in enumerate(values)]

    # Arguments share an attacker tuple exactly where the derived ones do, and
    # arguments with one leaf mask share their support and premise tuples.
    assert sharing(aaf.attackers_of.values()) == sharing(attackers.values())
    sets = {(arg.proof[3], id(arg.support), id(arg.premises)) for arg in aaf.arguments}
    assert len(sets) == len({mask for mask, _, _ in sets})


@settings(max_examples=150, deadline=None)
@given(agent=agents())
def test_random_agents_get_the_derived_graph(agent):
    assert_graph_is_the_derived_one(agent, "R")


@pytest.mark.parametrize("agent, sid", [
    (NON_QUALIFYING_SOURCE, "R"),
    (NOTHING_QUALIFIES, "R"),
    (ODD_CYCLE, "R"),
    (wide_agent(0, 40, 2), "R"),
], ids=["non-qualifying-source", "nothing-qualifies", "odd-cycle", "wide-40-dense"])
def test_named_inputs_get_the_derived_graph(agent, sid):
    assert_graph_is_the_derived_one(agent, sid)


@pytest.mark.parametrize("sid", ["S1", "S2J"])
def test_eldercare_gets_the_derived_graph(eldercare, sid):
    assert_graph_is_the_derived_one(eldercare, sid)


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
            assert result.aaf.arguments  # built now, from the rows
            assert len(result.report.statuses) == len(result.aaf.arguments)


def test_decide_and_explain_leave_the_framework_and_the_argument_graph_unbuilt(eldercare):
    """Deciding and explaining read the masks and the action-level report, so
    neither builds a per-argument view: the rows, the argument ids and
    attackers, the lifted report, the ABA framework or the argument graph."""
    inputs = [(eldercare, "S1"), (eldercare, "S2J")]
    inputs += [random_vda(RandomVdaSpec(seed=seed, actions=5)) for seed in range(10)]
    for agent, sid in inputs:
        for semantics in SEMANTICS:
            result = analyze_practical(agent, sid, semantics)
            explain_all_actions(result)
            for view in ("framework", "rows", "arguments", "attackers_of"):
                assert view not in vars(result.build)
            assert "aaf" not in vars(result)
            assert "report" not in vars(result)


def assert_action_nodes_decide_as_argument_nodes(agent: VdaAgent, situation_id: str, semantics: str) -> None:
    """The decision on the qualifying actions, lifted to the arguments, against
    the same semantics run on every argument with its source's attackers."""
    result = analyze_practical(agent, situation_id, semantics)
    build = result.build
    ref = acceptance_status({x: build.attackers_of[row[0]] for x, row in build.arguments.items()}, semantics)
    report = result.report
    assert [e.members for e in report.extensions] == [e.members for e in ref.extensions]
    assert all(e.semantics == semantics for e in report.extensions)
    assert list(report.statuses.items()) == list(ref.statuses.items())
    assert (report.semantics, report.vacuous, report.diagnostic) == (ref.semantics, ref.vacuous, ref.diagnostic)


def corpus_agents(count: int):
    """Agents drawn as the benchmark's corpus draws them: 2-5 actions, 1-4
    duties and 1-4 disjuncts, every vector satisfying a duty, order-inducing."""
    rng = random.Random(24)
    for seed in range(count):
        yield random_vda(RandomVdaSpec(
            seed=seed, actions=rng.randint(2, 5), duties=rng.randint(1, 4), disjuncts=rng.randint(1, 4),
            assumption_policy="satisfying", order_inducing=True,
        ))


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_action_nodes_decide_corpus_agents_as_argument_nodes(semantics):
    extensions = 0
    for agent, sid in corpus_agents(120):
        assert_action_nodes_decide_as_argument_nodes(agent, sid, semantics)
        extensions += len(analyze_practical(agent, sid, semantics).report.extensions) > 1
    assert extensions or semantics == "grounded"


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("agent", [NON_QUALIFYING_SOURCE, NOTHING_QUALIFIES, ODD_CYCLE, wide_agent(0, 40, 2)],
                         ids=["non-qualifying-source", "nothing-qualifies", "odd-cycle", "wide-40-dense"])
def test_action_nodes_decide_named_inputs_as_argument_nodes(agent, semantics):
    assert_action_nodes_decide_as_argument_nodes(agent, "R", semantics)


def test_a_vacuous_stable_report_lifts_with_its_diagnostic():
    report = analyze_practical(ODD_CYCLE, "R", "stable").report
    assert report.vacuous and report.extensions == ()
    assert report.diagnostic == "stable semantics yielded no extensions; statuses are vacuous"
    assert {st.status for st in report.statuses.values()} == {"vacuous"}
