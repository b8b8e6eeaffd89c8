"""Conflicting sensors: adjudicate perceptions before deciding what to do.

The robot simultaneously perceives 'low battery' and 'fully charged', plus
an abnormal-battery diagnosis.  Treating fc, lb, and "the battery is not
abnormal" as attackable assumptions, argumentation settles the conflict
(the battery is low and abnormal, not fully charged), rebuilds the
situation, and only then runs the practical pipeline on the matrix
registered for that justified situation.

Run:  python3 demos/epistemic_conflict.py
"""

from pathlib import Path

from vdarg import (
    IndeterminateSituationError,
    analyze_epistemic,
    end_to_end_decide,
    explain_situation,
    load_agent,
)
from vdarg.aba import argument_text

scenario = Path(__file__).resolve().parent.parent / "scenarios" / "eldercare.json"
agent = load_agent(scenario)
perceptions = sorted(agent.situation("S2").positives)
print("Raw perceptions:", ", ".join(perceptions), "(fc and lb conflict)")

result = analyze_epistemic(agent.epistemic, perceptions)
print("\nEpistemic arguments:")
for arg in result.aaf.arguments:
    print(f"  {arg.id}: {argument_text(arg.premises, arg.conclusion)}")
print("Extension:", sorted(result.report.extensions[0].members))

print("\nPer-assumption verdicts:")
for explanation in explain_situation(result):
    print(" ", explanation.text)

atoms = agent.language.atoms
print("\nJustified perceptions:", ", ".join(
    str(lit) for lit in sorted(result.justified_perceptions, key=lambda l: atoms.index(l.atom))
))
print("Justified situation:", ", ".join(str(lit) for lit in result.situation.ordered(atoms)))

decision = end_to_end_decide(agent, perceptions)
print("\nMatrix registered for the justified situation:", decision.situation_id)
print("Justified action:", sorted(decision.practical.justified_actions))

print("\nWithout the abnormality fact the conflict cannot be settled:")
try:
    end_to_end_decide(agent, ["lb"])
except IndeterminateSituationError as exc:
    print(" ", exc)
