"""tools/traffic.py: the complexou functions a benchmark workload reaches."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"


def test_cli_requests_reaches_main_and_not_the_product_route():
    argv = [sys.executable, str(TOOL), "--toy", "--workload", "cli-requests"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=300).stdout
    phases = json.loads(out)["cli-requests"]
    assert "complexou.cli.main" in phases["pass"]
    assert "complexou.hermite.hermite_product_poly" not in phases["setup"] + phases["pass"]
