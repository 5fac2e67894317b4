"""Case L within 260 MiB: run-all, report, verify, correlate and diff on ROADMAP's case L.

Usage: PYTHONPATH=src python .github/ci/case_l.py CASE_DIR

CASE_DIR is what `synctrail simulate --seed 7 --uploads 50000 --messages
20000 --calls 5000 --apps 200 --skew-seconds 300 --out CASE_DIR` wrote.
Prints one line per command and exits 1 when any check or bound fails.
"""
import hashlib, json, os, subprocess, sys, time
from pathlib import Path
case = Path(sys.argv[1])
out = case / "analysis"
def reap(*argv):
    """The exit code and peak RSS in MiB of one synctrail command, reaped here."""
    child = subprocess.Popen([sys.executable, "-m", "synctrail", *argv])
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024
code, peak_mib = reap("run-all", str(case / "bundle"), str(case / "cloud_events.jsonl"),
                      "--out", str(out))
report = (out / "sim-7.report.json").read_bytes()
digest = hashlib.sha256(report).hexdigest()
lines = report.count(b"\n")
findings = (out / "findings.json").stat().st_size
dump = (out / "dump.json").stat().st_size
print(f"run-all exit {code}, peak {peak_mib:.1f} MiB, report SHA-256 {digest}, "
      f"report {len(report)} B in {lines} lines, findings.json {findings} B, "
      f"dump.json {dump} B")
# report reads the stage files back and must give the same bytes.
again, again_mib = reap("report", "--out", str(out))
again_digest = hashlib.sha256((out / "sim-7.report.json").read_bytes()).hexdigest()
print(f"report exit {again}, peak {again_mib:.1f} MiB, report SHA-256 {again_digest}")
# The Markdown and HTML are written as they render, as the JSON is.
rendered = {fmt: reap("report", "--out", str(out), "--format", fmt) for fmt in ("md", "html")}
for fmt, (fmt_code, fmt_mib) in rendered.items():
    print(f"report --format {fmt} exit {fmt_code}, peak {fmt_mib:.1f} MiB")
# verify decides the bundle run-all just sealed from its file table alone.
verify = subprocess.run([sys.executable, "-m", "synctrail", "verify",
                         str(case / "bundle")], capture_output=True, text=True)
verdict = verify.stderr.splitlines()[-1:]
print(f"verify exit {verify.returncode}, {verdict}")
# correlate reads the inventory for its uninstall findings as run-all does.
alone = case / "correlate"
alone_code, alone_mib = reap("correlate", str(case / "bundle"),
                             str(case / "cloud_events.jsonl"), "--out", str(alone))
same_findings = alone_code == 0 and (
    (alone / "findings.json").read_bytes() == (out / "findings.json").read_bytes())
print(f"correlate exit {alone_code}, peak {alone_mib:.1f} MiB, "
      f"same findings.json as run-all: {same_findings}")
# diff matches records by id and compares their canonical bytes.
started = time.monotonic()
diff_code, diff_mib = reap("diff", str(case / "bundle"), str(case / "bundle"),
                           "--out", str(case / "diff"))
diff_s = time.monotonic() - started
diff_payload = (json.loads((case / "diff" / "diff.json").read_text(encoding="utf-8"))
                if diff_code == 0 else None)
same_bundle = {"added": [], "removed": [], "changed": [], "identical_count": 75215}
print(f"diff exit {diff_code}, peak {diff_mib:.1f} MiB, {diff_s:.2f} s, "
      f"diff.json {diff_payload}")
expected = "64426b23ef9e9f38e19db4e4d5a4ee1261ca72716d0c4880f588ddd24f7c84ae"
ok = (code == 0 and peak_mib <= 260 and digest == expected and findings <= 64 * 1024
      and dump <= 64 * 1024
      and len(report) <= 22_000_000 and lines <= 200_000
      and again == 0 and again_digest == expected
      and all(fmt_code == 0 and fmt_mib <= again_mib + 10
              for fmt_code, fmt_mib in rendered.values())
      and verify.returncode == 0 and verdict == ["chain verdict: Intact"]
      and alone_code == 0 and same_findings
      and diff_code == 0 and diff_payload == same_bundle)
sys.exit(0 if ok else 1)
