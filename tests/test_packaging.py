import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# scipy is a test-only dependency: the package builds a market and
# prices on it with every scipy import failing
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import multicurve, multicurve.cli, multicurve.risk
from multicurve import MarketState, parse_portfolio, price_position
from multicurve.synthetic import default_market, make_quote_sets
m = default_market()
curves = MarketState(m.reference_date, make_quote_sets(m)).base_curves()
(pos,) = parse_portfolio([{"kind": "swaption", "forwarding": "fwd_6M",
                           "start": "2028-06-15", "end": "2033-06-15", "strike": 0.03}])
print(price_position(pos, curves)[0] > 0.0)
"""


def test_package_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_benchmark_self_test_passes():
    # every workload's output check still rejects its broken answers on
    # this source tree
    root = os.path.dirname(SRC)
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--self-test"],
        capture_output=True, text=True, cwd=root, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "self-test: 0 check(s) misjudged" in out.stdout
