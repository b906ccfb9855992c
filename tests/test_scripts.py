import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_imports_the_checkout_without_pythonpath(tmp_path):
    # a run name other than "__main__" runs the script's imports but not its experiments
    script = ROOT / "scripts" / "reproduce.py"
    code = (
        f"import runpy, sys; runpy.run_path({str(script)!r}, run_name='reproduce'); "
        "print(sys.modules['etckit'].__file__)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert Path(run.stdout.strip()).resolve().is_relative_to(ROOT / "src")
