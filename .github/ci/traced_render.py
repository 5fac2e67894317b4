"""Check a traced benchmark result: the outcome is correct and render_report covers the report stage.

Usage: python3 perfbench/run.py --workload sync-bulk --seed 1 --seconds 5 --trace 1 \
           | tail -n 1 | python3 .github/ci/traced_render.py
"""
import json, sys
result = json.loads(sys.stdin.read())
metrics = {name: m["value"] for name, m in result["metrics"].items()}
correct = result["correct"]
render, stage = metrics["reporting.render_report.s"], metrics["cli.stage.report.s"]
print(f"correct {correct}, render {render:.4f} s of report stage {stage:.4f} s")
sys.exit(0 if correct is True and render >= 0.5 * stage else 1)
