"""The Nixon diamond: two default assumptions with contradictory conclusions.

Quakers are usually pacifists, Republicans usually are not, and Nixon is
both.  Neither default defeats the other outright, which is exactly what the
different semantics report: the grounded extension commits to nothing, while
preferred and stable semantics offer the two coherent standpoints.

Run:  python3 demos/nixon_diamond.py
"""

from pathlib import Path

from vdarg import (
    Aaf,
    acceptance_status,
    compute_attacks,
    derive_arguments,
    epistemic_framework,
    extensions_for,
    load_agent,
    render_argument,
)

scenario = Path(__file__).resolve().parent.parent / "scenarios" / "nixon.json"
agent = load_agent(scenario)

build = epistemic_framework(agent.epistemic)
arguments = derive_arguments(build.framework, label="Y", keep_conclusions=build.relevant)
aaf = Aaf(arguments, compute_attacks(arguments, build.framework))

print("Arguments:")
for arg in aaf.arguments:
    print(f"  {arg.id}: {render_argument(arg, build.display_order)}")
print("Attacks:", sorted(aaf.attacks))

for semantics in ("grounded", "complete", "preferred", "stable"):
    extensions = [sorted(e.members) for e in extensions_for(aaf, semantics)]
    print(f"{semantics:>9}: {extensions}")

report = acceptance_status(aaf, "preferred")
print("\nUnder preferred semantics every argument is credulously justified:")
for arg_id, status in report.statuses.items():
    print(f"  {arg_id}: {status.status} (in some extension: {status.in_some})")
