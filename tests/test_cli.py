import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multicurve
from multicurve import YieldCurve, write_quotes_csv
from multicurve import cli
from multicurve.cli import QUANTO_CSV_HEADER, main
from multicurve.synthetic import make_quote_sets

PORTFOLIO = [
    {
        "id": "fra1", "kind": "fra", "forwarding": "fwd_6M",
        "start": "2027-06-15", "end": "2027-12-15",
        "strike": 0.027, "notional": 1000000,
    },
    {
        "id": "swp5", "kind": "swap", "forwarding": "fwd_6M",
        "start": "2026-06-15", "end": "2031-06-15",
        "fixed_rate": 0.03, "notional": 1000000, "payer": True,
    },
    {
        "id": "cap3", "kind": "cap", "forwarding": "fwd_6M",
        "start": "2026-12-15", "end": "2029-12-15",
        "strike": 0.03, "notional": 1000000,
    },
    {
        "id": "swpt", "kind": "swaption", "forwarding": "fwd_6M",
        "start": "2028-06-15", "end": "2033-06-15",
        "strike": 0.032, "notional": 1000000, "payer": True,
    },
]

VOLCORR = {
    "breakpoints": [], "sigma_f": [0.25], "sigma_X": [0.1], "rho_fX": [-0.3]
}
SWAPVOL = {
    "breakpoints": [], "nu_f": [0.22], "nu_Y": [0.08], "rho_fY": [-0.25]
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Quote CSVs, bootstrapped curve JSONs and a portfolio on disk."""
    ws = tmp_path_factory.mktemp("cli")
    sets = make_quote_sets()
    for label in ("discount", "fwd_6M"):
        with open(ws / f"{label}.csv", "w") as fh:
            write_quotes_csv(sets[label], fh)
    (ws / "portfolio.json").write_text(json.dumps(PORTFOLIO))
    (ws / "volcorr.json").write_text(json.dumps(VOLCORR))
    (ws / "swapvol.json").write_text(json.dumps(SWAPVOL))
    rc = main([
        "bootstrap",
        "--quotes", f"discount={ws / 'discount.csv'}",
        "--quotes", f"fwd_6M={ws / 'fwd_6M.csv'}",
        "--out", str(ws / "curves"),
    ])
    assert rc == 0
    return ws


def curve_args(ws):
    return [
        "--curves", f"discount={ws / 'curves' / 'discount.json'}",
        "--curves", f"fwd_6M={ws / 'curves' / 'fwd_6M.json'}",
    ]


class TestBootstrap:
    def test_writes_loadable_curves(self, workspace):
        for label in ("discount", "fwd_6M"):
            curve = YieldCurve.load(workspace / "curves" / f"{label}.json")
            assert curve.tenor_label == label

    def test_reports_tiny_repricing_errors(self, workspace, tmp_path, capsys):
        rc = main([
            "bootstrap",
            "--quotes", f"discount={workspace / 'discount.csv'}",
            "--out", str(tmp_path / "curves"),
        ])
        assert rc == 0
        lines = [
            l for l in capsys.readouterr().err.splitlines()
            if l.startswith("info:repricing:discount:")
        ]
        assert len(lines) == 12
        for line in lines:
            assert abs(float(line.rsplit(":", 1)[1])) < 1e-10

    def test_reports_solver_work_per_curve(self, workspace, tmp_path, capsys):
        rc = main([
            "bootstrap",
            "--quotes", f"discount={workspace / 'discount.csv'}",
            "--quotes", f"fwd_6M={workspace / 'fwd_6M.csv'}",
            "--out", str(tmp_path / "curves"),
        ])
        assert rc == 0
        lines = [
            l for l in capsys.readouterr().err.splitlines() if l.startswith("info:solver:")
        ]
        assert [l.split(":")[2] for l in lines] == ["discount", "fwd_6M"]
        for line in lines:
            fields = dict(f.split("=") for f in line.split(":")[3:])
            assert set(fields) == {"iterations", "residual_evals", "jacobian_evals", "halvings"}
            n = {k: int(v) for k, v in fields.items()}
            assert 1 <= n["residual_evals"] <= 6
            assert n["residual_evals"] == 1 + n["iterations"] + n["halvings"]

    def test_parser_built_once_across_independent_runs(
        self, workspace, tmp_path, monkeypatch
    ):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        both, one = tmp_path / "both", tmp_path / "one"
        try:
            assert main([
                "bootstrap",
                "--quotes", f"discount={workspace / 'discount.csv'}",
                "--quotes", f"fwd_6M={workspace / 'fwd_6M.csv'}",
                "--out", str(both),
            ]) == 0
            assert main([
                "bootstrap",
                "--quotes", f"discount={workspace / 'discount.csv'}",
                "--out", str(one),
            ]) == 0
        finally:
            cli._parser.cache_clear()
        # the second run sees its own --quotes list alone
        assert sorted(os.listdir(both)) == ["discount.json", "fwd_6M.json"]
        assert sorted(os.listdir(one)) == ["discount.json"]
        assert len(built) == 1
        assert real() is not real()


class TestBasis:
    def test_output_layout(self, workspace, tmp_path, capsys):
        out = tmp_path / "basis.csv"
        rc = main([
            "basis", *curve_args(workspace),
            "--stride-days", "30", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# multicurve-pricer v")
        assert "basis" in lines[0] and "sha256:" in lines[0]
        assert lines[1] == "date,T1,T2,BA_mult,BA_add_bp"
        assert len(lines) > 10
        first = lines[2].split(",")
        assert float(first[3]) > 1.0  # multiplicative basis above one

    def test_alt_curves_report_total_variation(self, workspace, tmp_path):
        alt = tmp_path / "alt"
        rc = main([
            "bootstrap",
            "--quotes", f"discount={workspace / 'discount.csv'}",
            "--quotes", f"fwd_6M={workspace / 'fwd_6M.csv'}",
            "--out", str(alt), "--interp", "linzero",
        ])
        assert rc == 0
        out = tmp_path / "basis.csv"
        rc = main([
            "basis", *curve_args(workspace),
            "--alt-curves", f"discount={alt / 'discount.json'}",
            "--alt-curves", f"fwd_6M={alt / 'fwd_6M.json'}",
            "--stride-days", "30", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("# main_total_variation_add=")
        assert lines[2].startswith("# alt_total_variation_add=")
        main_tv = float(lines[1].split("=")[1])
        alt_tv = float(lines[2].split("=")[1])
        assert alt_tv > main_tv

    def test_deterministic_bytes(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["basis", *curve_args(workspace), "--stride-days", "30"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestQuanto:
    def test_grid_layout_and_closed_form(self, tmp_path):
        out = tmp_path / "quanto.csv"
        rc = main([
            "quanto", "--forward", "0.04", "--expiry", "0.5",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == QUANTO_CSV_HEADER
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 63  # 3 vol combos x 21 correlations
        for row in rows:
            rho, s_f, s_x, qa, add_bp = map(float, row)
            want = math.exp(-s_f * s_x * rho * 0.5)
            # the file carries 12 significant digits
            assert qa == pytest.approx(want, rel=1e-10)
            assert add_bp == pytest.approx(0.04 * (qa - 1.0) * 1e4, abs=1e-8)
            if rho == 0.0:
                assert qa == 1.0 and add_bp == 0.0

    def test_spans_sub_bp_to_tens_of_bp(self, tmp_path):
        out = tmp_path / "quanto.csv"
        assert main(["quanto", "--out", str(out)]) == 0
        mags = [
            abs(float(l.split(",")[4]))
            for l in out.read_text().splitlines()[2:]
        ]
        assert min(m for m in mags if m > 0.0) < 1.0
        assert max(mags) > 10.0

    def test_rejects_bad_scenario(self, capsys):
        assert main(["quanto", "--expiry", "-1.0"]) == 2
        assert capsys.readouterr().err.startswith("error:input:")


class TestPrice:
    def test_portfolio_rows(self, workspace, tmp_path):
        out = tmp_path / "prices.csv"
        rc = main([
            "price", "--portfolio", str(workspace / "portfolio.json"),
            *curve_args(workspace),
            "--volcorr", str(workspace / "volcorr.json"),
            "--swap-volcorr", str(workspace / "swapvol.json"),
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "instrument_id,kind,pv,fair_rate_or_premium"
        rows = {l.split(",")[0]: l.split(",") for l in lines[2:]}
        assert set(rows) == {"fra1", "swp5", "cap3", "swpt"}
        for _, kind, pv, fair in rows.values():
            assert math.isfinite(float(pv))
            assert math.isfinite(float(fair))
        assert float(rows["cap3"][2]) > 0.0
        assert float(rows["swpt"][2]) > 0.0

    def test_single_curve_changes_values(self, workspace, tmp_path):
        base_args = [
            "price", "--portfolio", str(workspace / "portfolio.json"),
            *curve_args(workspace),
            "--volcorr", str(workspace / "volcorr.json"),
            "--swap-volcorr", str(workspace / "swapvol.json"),
        ]
        two, one = tmp_path / "two.csv", tmp_path / "one.csv"
        assert main(base_args + ["--out", str(two)]) == 0
        assert main(base_args + ["--single-curve", "--out", str(one)]) == 0
        pv = lambda p, row: float(p.read_text().splitlines()[row].split(",")[2])
        assert pv(two, 2) != pv(one, 2)

    def test_swapped_vol_files_rejected(self, workspace, capsys):
        rc = main([
            "price", "--portfolio", str(workspace / "portfolio.json"),
            *curve_args(workspace),
            "--volcorr", str(workspace / "swapvol.json"),
        ])
        assert rc == 2
        assert "error:input:" in capsys.readouterr().err

    def test_missing_forwarding_curve_rejected(self, workspace, capsys):
        rc = main([
            "price", "--portfolio", str(workspace / "portfolio.json"),
            "--curves", f"discount={workspace / 'curves' / 'discount.json'}",
        ])
        assert rc == 2
        assert "error:input:" in capsys.readouterr().err


class TestRisk:
    def test_ladder_and_hedge_report(self, workspace, tmp_path, capsys):
        book = [dict(PORTFOLIO[1])]  # just the 5Y payer swap
        pf = tmp_path / "book.json"
        pf.write_text(json.dumps(book))
        ladder = tmp_path / "ladder.csv"
        hedges = tmp_path / "hedges.csv"
        rc = main([
            "risk", "--portfolio", str(pf),
            "--quotes", f"discount={workspace / 'discount.csv'}",
            "--quotes", f"fwd_6M={workspace / 'fwd_6M.csv'}",
            "--hedge", "fwd_6M:2031-06-15",
            "--hedge-out", str(hedges),
            "--out", str(ladder),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert any(l.startswith("info:conservation:") for l in err.splitlines())
        info = [l for l in err.splitlines() if l.startswith("info:risk:")]
        assert len(info) == 1
        solver = [l for l in err.splitlines() if l.startswith("info:solver:")]
        assert [l.split(":")[2] for l in solver] == ["discount", "fwd_6M"]
        fields = dict(f.split("=") for f in info[0].split(":")[2:])
        # one pillar per quote; the compiled book gives its gradient from
        # one valuation, shared by ladder, hedge and residual
        assert int(fields["pillars"]) == 12 + 11
        assert int(fields["book_valuations"]) == 1
        assert fields["gradient"] == "exact"
        assert 1.0 <= float(fields["cond"]) < 1e8
        lad = ladder.read_text().splitlines()
        assert lad[1] == "curve,pillar_date,instrument_kind,market_rate,delta_per_bp"
        assert len(lad) == 2 + 12 + 11  # one row per quote in both sets
        hdg = hedges.read_text().splitlines()
        assert hdg[1] == "hedge_instrument,hedge_ratio,residual_delta_per_bp"
        name, ratio, residual = hdg[2].split(",")
        assert name == "fwd_6M:SWAP:2031-06-15"
        # 1e6 notional at a nearby fixed rate hedges about one-for-one,
        # and hedging its own pillar kills that delta outright
        assert float(ratio) == pytest.approx(1e6, rel=0.05)
        own = next(l for l in lad[2:] if l.split(",")[1] == "2031-06-15")
        assert abs(float(residual)) < 1e-3 * abs(float(own.split(",")[4]))

    def test_outputs_rewritten_in_place_match_fresh_files(self, workspace, tmp_path):
        # written over in place, a longer stale file keeps none of its tail
        pf = tmp_path / "book.json"
        pf.write_text(json.dumps([dict(PORTFOLIO[1])]))

        def run(ladder, hedges):
            return main([
                "risk", "--portfolio", str(pf),
                "--quotes", f"discount={workspace / 'discount.csv'}",
                "--quotes", f"fwd_6M={workspace / 'fwd_6M.csv'}",
                "--hedge", "fwd_6M:2031-06-15",
                "--hedge-out", str(hedges), "--out", str(ladder),
            ])

        assert run(tmp_path / "l0.csv", tmp_path / "h0.csv") == 0
        stale = "x" * 100_000 + "\n"
        for name in ("l1.csv", "h1.csv"):
            (tmp_path / name).write_text(stale)
        assert run(tmp_path / "l1.csv", tmp_path / "h1.csv") == 0
        for fresh, rewritten in (("l0.csv", "l1.csv"), ("h0.csv", "h1.csv")):
            assert (tmp_path / rewritten).read_bytes() == (tmp_path / fresh).read_bytes()
        # a target that cannot be cut is written without cutting
        if os.path.exists(os.devnull):
            assert run(os.devnull, os.devnull) == 0

    def test_unknown_hedge_quote_rejected(self, workspace, tmp_path, capsys):
        pf = tmp_path / "book.json"
        pf.write_text(json.dumps([dict(PORTFOLIO[1])]))
        rc = main([
            "risk", "--portfolio", str(pf),
            "--quotes", f"discount={workspace / 'discount.csv'}",
            "--quotes", f"fwd_6M={workspace / 'fwd_6M.csv'}",
            "--hedge", "fwd_6M:2099-01-01",
            "--hedge-out", str(tmp_path / "h.csv"),
        ])
        assert rc == 2
        assert "error:input:" in capsys.readouterr().err


class TestErrorPaths:
    def test_bad_label_syntax(self, capsys):
        assert main(["bootstrap", "--quotes", "discount", "--out", "x"]) == 2
        assert "LABEL=PATH" in capsys.readouterr().err

    def test_unknown_label(self, capsys):
        assert main(
            ["bootstrap", "--quotes", "fwd_2M=x.csv", "--out", "x"]
        ) == 2
        capsys.readouterr()

    def test_missing_discount_set(self, workspace, capsys):
        rc = main([
            "bootstrap",
            "--quotes", f"fwd_6M={workspace / 'fwd_6M.csv'}",
            "--out", "x",
        ])
        assert rc == 2
        assert "discount" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main([
            "bootstrap",
            "--quotes", f"discount={tmp_path / 'nope.csv'}",
            "--out", str(tmp_path),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_malformed_quotes_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("kind,quote\nDEPOSIT,0.02\n")
        rc = main([
            "bootstrap", "--quotes", f"discount={bad}", "--out", str(tmp_path)
        ])
        assert rc == 2
        capsys.readouterr()

    def test_basis_swap_on_one_tenor_exits_input(self, workspace, tmp_path, capsys):
        csv = tmp_path / "fwd_1M.csv"
        csv.write_text(
            "kind,underlying_tenor_months,start,end,quote,"
            "fixed_freq_months,leg_daycount,second_tenor_months\n"
            "DEPOSIT,1,2026-06-15,2026-07-15,0.02,12,ACT_360,\n"
            "BASIS_SWAP,1,2026-06-15,2027-06-15,0.0005,12,ACT_360,1\n"
        )
        rc = main([
            "bootstrap",
            "--quotes", f"discount={workspace / 'discount.csv'}",
            "--quotes", f"fwd_1M={csv}",
            "--out", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:input:" in err and "tenor" in err

    @pytest.mark.parametrize("command", ["bootstrap", "risk"])
    def test_quote_on_another_index_tenor_exits_input(self, workspace, tmp_path, command):
        # a 7M swap in the 6M set formerly built a silently wrong curve
        lines = (workspace / "fwd_6M.csv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("SWAP,6,"))
        lines[i] = lines[i].replace("SWAP,6,", "SWAP,7,", 1)
        csv = tmp_path / "fwd_6M.csv"
        csv.write_text("\n".join(lines) + "\n")
        quotes = ["--quotes", f"discount={workspace / 'discount.csv'}",
                  "--quotes", f"fwd_6M={csv}"]
        if command == "bootstrap":
            argv = ["bootstrap", *quotes, "--out", str(tmp_path / "curves")]
        else:
            argv = ["risk", "--portfolio", str(workspace / "portfolio.json"), *quotes]
        rc, err = run_main(argv)
        assert rc == 2
        end = lines[i].split(",")[3]
        assert err == [
            f"error:input:fwd_6M SWAP quote ending {end} is on the 7M index, not the set's 6M"
        ]

    def test_unsolvable_quote_exits_numerical(self, tmp_path, capsys):
        csv = tmp_path / "quotes.csv"
        csv.write_text(
            "kind,underlying_tenor_months,start,end,quote,"
            "fixed_freq_months,leg_daycount,second_tenor_months\n"
            "DEPOSIT,6,2026-06-15,2026-12-15,-3.0,12,ACT_360,\n"
        )
        rc = main([
            "bootstrap", "--quotes", f"discount={csv}", "--out", str(tmp_path)
        ])
        assert rc == 3
        assert "error:numerical:" in capsys.readouterr().err



def run_main(argv) -> tuple[int, list[str]]:
    """``main``'s exit code and stderr lines; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def malformed_cases(ws):
    """(name, argv) for inputs that must end in exit 2 and one error line."""
    row = dict(PORTFOLIO[1])
    files = {
        "other_curve.json": [dict(row, forwarding="fwd_3M")],
        "not_object.json": [5],
        "null_notional.json": [dict(row, notional=None)],
        "string_payer.json": [dict(row, payer="false")],
        "vol_lacks_key.json": {k: v for k, v in VOLCORR.items() if k != "rho_fX"},
        "vol_array.json": [VOLCORR],
    }
    for name, content in files.items():
        (ws / name).write_text(json.dumps(content))
    lines = (ws / "fwd_6M.csv").read_text().splitlines()
    short = lines[:-1] + [",".join(lines[-1].split(",")[:3])]
    (ws / "short_row.csv").write_text("\n".join(short) + "\n")
    quotes = ["--quotes", f"discount={ws / 'discount.csv'}"]
    book = ["--portfolio", str(ws / "portfolio.json")]
    return [
        ("risk_without_forwarding_set",
         ["risk", "--portfolio", str(ws / "other_curve.json"), *quotes]),
        ("row_not_object",
         ["price", "--portfolio", str(ws / "not_object.json"), *curve_args(ws)]),
        ("null_notional",
         ["price", "--portfolio", str(ws / "null_notional.json"), *curve_args(ws)]),
        ("short_quote_row",
         ["risk", *book, *quotes, "--quotes", f"fwd_6M={ws / 'short_row.csv'}"]),
        ("volcorr_lacks_key",
         ["price", *book, *curve_args(ws), "--volcorr", str(ws / "vol_lacks_key.json")]),
        ("volcorr_array",
         ["price", *book, *curve_args(ws), "--volcorr", str(ws / "vol_array.json")]),
        ("string_payer",
         ["price", "--portfolio", str(ws / "string_payer.json"), *curve_args(ws)]),
    ]


class TestMalformedInputs:
    @pytest.mark.parametrize("case", range(7))
    def test_exits_input_with_one_error_line(self, workspace, case):
        name, argv = malformed_cases(workspace)[case]
        rc, err = run_main(argv)
        assert rc == 2, name
        assert len(err) == 1 and err[0].startswith("error:input:"), (name, err)

    def test_overflowing_adjustment_exits_numerical(self, workspace):
        # sigma_f * sigma_X overflows: an error, not an inf or NaN price
        vol = workspace / "huge_vol.json"
        vol.write_text(json.dumps(dict(VOLCORR, sigma_f=[1e200], sigma_X=[1e200])))
        rc, err = run_main([
            "price", "--portfolio", str(workspace / "portfolio.json"),
            *curve_args(workspace), "--volcorr", str(vol),
        ])
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("error:numerical:"), err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=10) | st.integers() | st.floats(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)
ROW_KEYS = (
    "kind", "id", "forwarding", "quantity", "notional", "start", "end", "strike",
    "fixed_rate", "payer", "tenor_months", "float_tenor_months", "fixed_freq_months",
    "daycount", "daycount_float", "daycount_fixed",
)


@settings(
    derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    row=st.sampled_from(PORTFOLIO),
    row_changes=st.dictionaries(st.sampled_from(ROW_KEYS), JSON_VALUES, max_size=3),
    vol_changes=st.dictionaries(st.sampled_from(sorted(VOLCORR)), JSON_VALUES, max_size=2),
    swap_changes=st.dictionaries(st.sampled_from(sorted(SWAPVOL)), JSON_VALUES, max_size=2),
)
def test_random_json_fields_never_raise(workspace, row, row_changes, vol_changes, swap_changes):
    """Any JSON value in any portfolio or vol/corr field ends in an exit
    code: 0, 2 for input or 3 for numerical trouble, never a traceback."""
    fuzz = workspace / "fuzz"
    fuzz.mkdir(exist_ok=True)
    (fuzz / "book.json").write_text(json.dumps([dict(row, **row_changes)]))
    (fuzz / "vol.json").write_text(json.dumps(dict(VOLCORR, **vol_changes)))
    (fuzz / "swapvol.json").write_text(json.dumps(dict(SWAPVOL, **swap_changes)))
    rc, err = run_main([
        "price", "--portfolio", str(fuzz / "book.json"), *curve_args(workspace),
        "--volcorr", str(fuzz / "vol.json"), "--swap-volcorr", str(fuzz / "swapvol.json"),
        "--out", str(fuzz / "out.csv"),
    ])
    assert rc in (0, 2, 3)
    if rc:
        assert err[-1].startswith("error:"), err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "quanto.csv"
        # the child imports the same package as this process, installed or not
        src = str(Path(multicurve.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "multicurve.cli", "quanto", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert out.read_text().startswith("# multicurve-pricer v")
