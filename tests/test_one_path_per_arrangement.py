"""Subcommands reach the analyses only through the arrangement functions.

Each measurement arrangement is analysed by one ``(cfg, stream)`` function in
``biphoton.cli`` (``xcorr``, ``autocorr``, ``heralded``, ``metrics``,
``windows``) that every subcommand using it calls.  A ``cmd_*`` function that
calls a correlator estimator or a fit itself spells out channels, windows and
workers a second time, so this test parses ``cli.py`` and names every such call.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "biphoton" / "cli.py"
ANALYSES = {
    "cross_correlation_histogram",
    "normalized_g2",
    "heralded_autocorrelation",
    "coincidence_metrics",
    "window_sweep",
}


def _direct_analysis_calls():
    calls = []
    for node in ast.parse(CLI.read_text()).body:
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in ANALYSES or name.startswith("fit_"):
                calls.append(f"{node.name} calls {name} (line {call.lineno})")
    return calls


def test_subcommands_call_no_analysis_directly():
    calls = _direct_analysis_calls()
    assert not calls, "; ".join(calls)
