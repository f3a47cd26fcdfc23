"""Tests for the repro.lint static-analysis subsystem.

Each rule gets a violating fixture (must fire) and a compliant fixture
(must stay silent), plus suppression coverage; the engine and CLI get
behavioural tests of their own.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import StaticAnalysisError
from repro.lint import Severity, all_rules, get_rule, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.units import infer_unit, unit_of_name

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def findings_for(source, path="pkg/module.py", **kwargs):
    return lint_source(textwrap.dedent(source), path, **kwargs)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestEngine:
    def test_all_rules_registered(self):
        ids = [cls.rule_id for cls in all_rules()]
        # ML005/ML008/ML009/ML010 are retired (ruff's B006/F541 and
        # ML011's confinement table cover them) and never reused.
        assert ids == [
            "ML001", "ML002", "ML003", "ML004",
            "ML006", "ML007", "ML011", "ML012",
            "ML013", "ML014",
        ]

    def test_get_rule_unknown_id_raises(self):
        with pytest.raises(StaticAnalysisError):
            get_rule("ML999")

    def test_select_restricts_rules(self):
        source = """\
        import numpy as np
        x = np.random.rand(3)
        """
        only_006 = findings_for(source, select=["ML006"])
        assert rule_ids(only_006) == ["ML006"]  # no __all__; ML001 not run

    def test_ignore_removes_rule(self):
        source = """\
        __all__ = []
        import numpy as np
        x = np.random.rand(3)
        """
        assert rule_ids(findings_for(source, ignore=["ML001"])) == []

    def test_syntax_error_reported_as_ml000(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert rule_ids(findings) == ["ML000"]

    def test_findings_carry_location_and_severity(self):
        source = """\
        __all__ = []
        import numpy as np
        x = np.random.rand(3)
        """
        (finding,) = findings_for(source)
        assert finding.line == 3
        assert finding.severity is Severity.ERROR
        assert "module.py:3:" in finding.render()


class TestSuppression:
    def test_line_suppression_mutes_one_rule(self):
        source = """\
        __all__ = []
        import numpy as np
        x = np.random.rand(3)  # milback: disable=ML001 — fixture needs it
        """
        assert findings_for(source) == []

    def test_line_suppression_is_line_scoped(self):
        source = """\
        __all__ = []
        import numpy as np
        x = np.random.rand(3)  # milback: disable=ML001
        y = np.random.rand(3)
        """
        findings = findings_for(source)
        assert rule_ids(findings) == ["ML001"]
        assert findings[0].line == 4

    def test_line_suppression_wrong_rule_does_not_mute(self):
        source = """\
        __all__ = []
        import numpy as np
        x = np.random.rand(3)  # milback: disable=ML003
        """
        assert rule_ids(findings_for(source)) == ["ML001"]

    def test_file_suppression_mutes_everywhere(self):
        source = """\
        # milback: disable-file=ML001
        __all__ = []
        import numpy as np
        x = np.random.rand(3)
        y = np.random.rand(3)
        """
        assert findings_for(source) == []

    def test_pragma_inside_string_is_ignored(self):
        source = '''\
        __all__ = []
        import numpy as np
        note = "# milback: disable=ML001"
        x = np.random.rand(3)
        '''
        assert rule_ids(findings_for(source)) == ["ML001"]


class TestML001LegacyRandom:
    def test_fires_on_legacy_call(self):
        source = """\
        __all__ = []
        import numpy as np
        x = np.random.randn(4)
        """
        assert rule_ids(findings_for(source)) == ["ML001"]

    def test_fires_on_full_numpy_name(self):
        source = """\
        __all__ = []
        import numpy
        x = numpy.random.uniform(0, 1)
        """
        assert rule_ids(findings_for(source)) == ["ML001"]

    def test_fires_on_legacy_import_from(self):
        source = """\
        __all__ = []
        from numpy.random import rand
        """
        assert rule_ids(findings_for(source)) == ["ML001"]

    def test_silent_on_default_rng(self):
        source = """\
        __all__ = []
        import numpy as np
        rng = np.random.default_rng(7)
        x = rng.normal(size=4)
        seq = np.random.SeedSequence(3)
        """
        assert findings_for(source) == []

    def test_silent_on_generator_methods(self):
        source = """\
        __all__ = []
        def draw(rng):
            return rng.uniform(-1.0, 1.0)
        """
        assert rule_ids(findings_for(source)) == ["ML006"]  # only missing-def listing


class TestML002UnitSuffix:
    def test_fires_on_unit_alias(self):
        source = """\
        __all__ = []
        BAND_HZ = 28e9


        def f():
            frequency = BAND_HZ
            return frequency
        """
        findings = findings_for(source, select=["ML002"])
        assert rule_ids(findings) == ["ML002"]
        assert "frequency_hz" in findings[0].message

    def test_fires_on_scaled_unit(self):
        source = """\
        __all__ = []
        def f(start_hz, stop_hz):
            center = 0.5 * (start_hz + stop_hz)
            return center
        """
        assert rule_ids(findings_for(source, select=["ML002"])) == ["ML002"]

    def test_silent_when_suffix_present(self):
        source = """\
        __all__ = []
        def f(start_hz, stop_hz):
            center_hz = 0.5 * (start_hz + stop_hz)
            span_ghz = (stop_hz - start_hz) / 1e9
            return center_hz, span_ghz
        """
        assert findings_for(source, select=["ML002"]) == []

    def test_silent_on_dimensionless_ratio(self):
        source = """\
        __all__ = []
        def f(f1_hz, f2_hz):
            ratio = f1_hz / f2_hz
            return ratio
        """
        assert findings_for(source, select=["ML002"]) == []

    def test_silent_on_underscore_target(self):
        source = """\
        __all__ = []
        def f(t_s):
            _ = t_s
        """
        assert findings_for(source, select=["ML002"]) == []

    def test_unit_inference_helpers(self):
        assert unit_of_name("BAND_WIDTH_HZ") == "hz"
        assert unit_of_name("noise_v_per_rt_hz") == "v_per_rt_hz"
        assert unit_of_name("alarm") is None
        import ast

        assert infer_unit(ast.parse("x_m + y_m", mode="eval").body) == "m"
        assert infer_unit(ast.parse("x_m + y_s", mode="eval").body) is None
        assert infer_unit(ast.parse("x_m / y_m", mode="eval").body) is None


class TestML003FloatEquality:
    def test_fires_on_float_literal_compare(self):
        source = """\
        __all__ = []
        def f(ber):
            return ber == 0.0
        """
        assert rule_ids(findings_for(source, select=["ML003"])) == ["ML003"]

    def test_fires_on_unit_name_compare(self):
        source = """\
        __all__ = []
        def f(a_hz, b_hz):
            return a_hz != b_hz
        """
        assert rule_ids(findings_for(source, select=["ML003"])) == ["ML003"]

    def test_silent_on_int_compare(self):
        source = """\
        __all__ = []
        def f(count):
            return count == 0
        """
        assert findings_for(source, select=["ML003"]) == []

    def test_silent_on_isclose(self):
        source = """\
        __all__ = []
        import numpy as np
        def f(a_hz, b_hz):
            return np.isclose(a_hz, b_hz)
        """
        assert findings_for(source, select=["ML003"]) == []

    def test_silent_on_ordering_compare(self):
        source = """\
        __all__ = []
        def f(snr_db, floor_db):
            return snr_db < floor_db
        """
        assert findings_for(source, select=["ML003"]) == []


class TestML004ErrorHierarchy:
    def test_fires_on_builtin_raise(self):
        source = """\
        __all__ = []
        def f(x):
            if x < 0:
                raise ValueError("negative")
        """
        assert rule_ids(findings_for(source, select=["ML004"])) == ["ML004"]

    def test_fires_on_bare_except_and_broad_except(self):
        source = """\
        __all__ = []
        def f():
            try:
                pass
            except Exception:
                pass
            try:
                pass
            except:
                pass
        """
        assert rule_ids(findings_for(source, select=["ML004"])) == ["ML004", "ML004"]

    def test_fires_on_broad_member_of_tuple(self):
        source = """\
        __all__ = []
        def f():
            try:
                pass
            except (KeyError, Exception):
                pass
        """
        assert rule_ids(findings_for(source, select=["ML004"])) == ["ML004"]

    def test_silent_on_domain_error_and_reraise(self):
        source = """\
        __all__ = []
        from repro.errors import ConfigurationError


        def f(x):
            try:
                if x < 0:
                    raise ConfigurationError("negative")
            except ConfigurationError:
                raise
        """
        assert findings_for(source, select=["ML004"]) == []

    def test_silent_on_not_implemented_error(self):
        source = """\
        __all__ = []
        class Base:
            def hook(self):
                raise NotImplementedError
        """
        assert findings_for(source, select=["ML004", "ML006"]) == [] or rule_ids(
            findings_for(source, select=["ML004"])
        ) == []


class TestML006DunderAll:
    def test_fires_when_missing(self):
        findings = findings_for("def f():\n    return 1\n", select=["ML006"])
        assert rule_ids(findings) == ["ML006"]
        assert "__all__" in findings[0].message

    def test_fires_on_unlisted_public_def(self):
        source = """\
        __all__ = ["f"]
        def f():
            return 1
        def g():
            return 2
        """
        findings = findings_for(source, select=["ML006"])
        assert rule_ids(findings) == ["ML006"]
        assert "'g'" in findings[0].message

    def test_fires_on_phantom_export(self):
        source = """\
        __all__ = ["ghost"]
        """
        findings = findings_for(source, select=["ML006"])
        assert "ghost" in findings[0].message

    def test_silent_on_accurate_all(self):
        source = """\
        __all__ = ["f", "CONSTANT"]
        CONSTANT = 3


        def f():
            return CONSTANT


        def _private():
            return 0
        """
        assert findings_for(source, select=["ML006"]) == []

    def test_private_modules_exempt(self):
        source = "def f():\n    return 1\n"
        assert findings_for(source, path="pkg/_internal.py", select=["ML006"]) == []
        assert findings_for(source, path="pkg/__main__.py", select=["ML006"]) == []
        assert rule_ids(
            findings_for(source, path="pkg/__init__.py", select=["ML006"])
        ) == ["ML006"]


class TestML007BarePrint:
    def test_fires_on_bare_print(self):
        source = """\
        __all__ = []
        def report(x):
            print(x)
        """
        findings = findings_for(source, select=["ML007"])
        assert rule_ids(findings) == ["ML007"]
        assert "print()" in findings[0].message

    def test_fires_in_main_guard_without_pragma(self):
        source = """\
        __all__ = []
        if __name__ == "__main__":
            print("hi")
        """
        assert rule_ids(findings_for(source, select=["ML007"])) == ["ML007"]

    def test_line_pragma_suppresses(self):
        source = """\
        __all__ = []
        if __name__ == "__main__":
            print("hi")  # milback: disable=ML007 — script entry point
        """
        assert findings_for(source, select=["ML007"]) == []

    def test_file_pragma_suppresses(self):
        source = """\
        # milback: disable-file=ML007 — CLI module
        __all__ = []
        def report(x):
            print(x)
        """
        assert findings_for(source, select=["ML007"]) == []

    def test_silent_on_rebound_print(self):
        source = """\
        __all__ = []
        def collect(print):
            print("not the builtin")
        print = collect
        """
        assert findings_for(source, select=["ML007"]) == []

    def test_silent_on_method_named_print(self):
        source = """\
        __all__ = []
        def render(doc):
            doc.print()
            return doc
        """
        assert findings_for(source, select=["ML007"]) == []


def confinement_case(case_id, source, count, hint=None, path="pkg/module.py"):
    return pytest.param(path, source, count, hint, id=case_id)


PARALLEL_HINT = "repro.parallel"
FAULTS_HINT = "public API"

CONFINEMENT_CASES = [
    # Process pools belong to repro/parallel/.
    confinement_case("multiprocessing", "import multiprocessing\n", 1, PARALLEL_HINT),
    confinement_case(
        "concurrent_futures_variants",
        """\
        import concurrent.futures
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import get_context
        """,
        4,
        PARALLEL_HINT,
    ),
    confinement_case(
        "one_finding_per_statement",
        "from multiprocessing import Pool, Queue\n",
        1,
        PARALLEL_HINT,
    ),
    confinement_case(
        "deferred_and_type_checking",
        """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from multiprocessing import Queue


        def run():
            import concurrent.futures
            return concurrent.futures
        """,
        2,
        PARALLEL_HINT,
    ),
    confinement_case(
        "inside_repro_parallel",
        """\
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        """,
        0,
        path="src/repro/parallel/pool.py",
    ),
    confinement_case(
        "unrelated_imports",
        """\
        import threading
        from concurrency_tools import pool  # different top-level module
        from repro.parallel import parallel_map
        """,
        0,
    ),
    confinement_case(
        "parallel_pragma",
        "import multiprocessing  # milback: disable=ML011 — CPU-count probe only\n",
        0,
    ),
    # Fault internals belong to repro/faults/.
    confinement_case(
        "faults_internal_modules",
        """\
        import repro.faults.injectors
        from repro.faults.plan import FaultPlan
        from repro.faults.spec import FaultSpec
        """,
        3,
        FAULTS_HINT,
    ),
    confinement_case(
        "faults_submodule_via_package", "from repro.faults import plan\n", 1, FAULTS_HINT
    ),
    confinement_case(
        "faults_relative_module",
        "from ..faults.plan import FaultPlan\n",
        1,
        FAULTS_HINT,
        path="src/repro/experiments/x.py",
    ),
    confinement_case(
        "faults_relative_submodule",
        "from ..faults import plan\n",
        1,
        FAULTS_HINT,
        path="src/repro/experiments/x.py",
    ),
    confinement_case(
        "faults_public_api",
        """\
        from repro import faults
        import repro.faults
        from repro.faults import FaultPlan, FaultSpec, activate
        from repro.faults import campaign
        from repro.faults.campaign import run_campaign
        """,
        0,
    ),
    confinement_case(
        "inside_repro_faults",
        """\
        from repro.faults.spec import FaultSpec
        from repro.faults import injectors
        """,
        0,
        path="src/repro/faults/plan.py",
    ),
    confinement_case(
        "faults_pragma",
        "from repro.faults.spec import FaultSpec  # milback: disable=ML011 — taxonomy docs tooling\n",
        0,
    ),
]


class TestML011Confinement:
    @pytest.mark.parametrize(("path", "source", "count", "hint"), CONFINEMENT_CASES)
    def test_confined_imports(self, path, source, count, hint):
        findings = findings_for(source, path=path, select=["ML011"])
        assert rule_ids(findings) == ["ML011"] * count
        assert all(hint in finding.message for finding in findings)

    @pytest.mark.parametrize(
        "relpath",
        ["repro/parallel/pool.py", "repro/faults/plan.py"],
        ids=["pool", "plan"],
    )
    def test_owner_module_exempt_on_disk(self, relpath):
        # The real modules import what their package owns (the pool owns
        # the stdlib pools, the plan the injectors); the path carve-out,
        # not a pragma, is what keeps the tree lint-clean.
        path = SRC_ROOT / relpath
        source = path.read_text(encoding="utf-8")
        assert lint_source(source, str(path), select=["ML011"]) == []
        assert lint_source(source, "pkg/elsewhere.py", select=["ML011"]) != []


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text('__all__ = ["f"]\n\n\ndef f():\n    return 1\n')
        assert lint_main([str(target)]) == 0
        assert "All checks passed" in capsys.readouterr().out

    def test_violation_exits_one_with_text(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert lint_main([str(target), "--select", "ML001"]) == 1
        out = capsys.readouterr().out
        assert "ML001" in out and "Found 1 finding(s)" in out

    def test_json_output_schema(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert lint_main([str(target), "--select", "ML001", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 1
        assert payload["summary"]["by_rule"] == {"ML001": 1}
        assert payload["findings"][0]["rule"] == "ML001"

    def test_statistics_counts_rules_and_files(self, tmp_path, capsys):
        dirty = "import numpy as np\nx = np.random.rand(3)\n"
        write_tree(tmp_path, {
            "pkg/dirty.py": dirty,
            "pkg/clean.py": '__all__ = ["f"]\n\n\ndef f():\n    return 1\n',
            "pkg/also_dirty.py": dirty + "y = np.random.rand(2)\n",
        })
        assert lint_main([str(tmp_path / "pkg"), "--select", "ML001", "--statistics"]) == 1
        out = capsys.readouterr().out
        assert "ML001: 3" in out
        assert "files: 3  wall:" in out
        assert out.rstrip().endswith("Found 3 finding(s).")

    def test_statistics_counts_each_file_once(self, tmp_path, monkeypatch, capsys):
        # Targets given relative to the working directory lie inside the
        # usage roots that project rules discover as absolute paths; each
        # file must still be analysed, and counted, exactly once.
        write_tree(tmp_path, {
            "docs/OBSERVABILITY.md": "# Observability\n",
            "tests/test_a.py": "__all__ = []\n",
            "tests/test_b.py": "__all__ = []\n",
            "benchmarks/bench_c.py": "__all__ = []\n",
            "examples/demo.py": "__all__ = []\n",
        })
        monkeypatch.chdir(tmp_path)
        assert lint_main(["tests", "benchmarks", "examples", "--statistics"]) == 0
        assert "files: 4  wall:" in capsys.readouterr().out

    def test_json_output_is_deterministic(self, tmp_path, capsys):
        dirty = "import numpy as np\nx = np.random.rand(3)\ny = np.random.rand(2)\n"
        write_tree(tmp_path, {"pkg/a.py": dirty, "pkg/b.py": dirty})
        argv = [str(tmp_path / "pkg"), "--select", "ML001", "--format", "json"]
        assert lint_main(argv) == 1
        first = capsys.readouterr().out
        assert lint_main(argv) == 1
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["summary"] == {"total": 4, "by_rule": {"ML001": 4}}
        assert [f["line"] for f in payload["findings"]] == [2, 3, 2, 3]

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("__all__ = []\n")
        assert lint_main([str(target), "--select", "ML777"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_cls in all_rules():
            assert rule_cls.rule_id in out

    def test_module_entry_point(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import numpy as np\nx = np.random.rand(3)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target), "--select", "ML001"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "ML001" in proc.stdout


class TestRepositoryIsClean:
    def test_src_tree_has_no_findings(self):
        from repro.lint import lint_paths

        findings = lint_paths([str(SRC_ROOT)])
        assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# Project rules (ML011-ML014) run over small on-disk fixture trees: the
# cross-file analyses need real paths so module names, the import graph
# and the catalogue/usage-root discovery all engage.
# ---------------------------------------------------------------------------


def write_tree(root, files):
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(content))
    return root


def tree_findings(root, select):
    from repro.lint import lint_paths

    return lint_paths([str(root)], select=select)


class TestML011Layering:
    def test_upward_import_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/protocol/link.py": '__all__ = ["send"]\n\n\ndef send():\n    return 1\n',
            "repro/phy/bad.py": "from repro.protocol.link import send\n\nsend()\n",
        })
        (finding,) = tree_findings(tmp_path, ["ML011"])
        assert finding.rule_id == "ML011"
        assert finding.path.endswith("bad.py")
        assert "layering violation" in finding.message
        assert "repro.phy.bad" in finding.message

    def test_deferred_upward_import_still_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/protocol/link.py": '__all__ = ["send"]\n\n\ndef send():\n    return 1\n',
            "repro/phy/lazy.py": (
                "def helper():\n"
                "    from repro.protocol.link import send\n"
                "    return send()\n"
            ),
        })
        (finding,) = tree_findings(tmp_path, ["ML011"])
        assert "layering violation" in finding.message

    def test_type_checking_import_is_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "repro/protocol/link.py": '__all__ = ["send"]\n\n\ndef send():\n    return 1\n',
            "repro/phy/typed.py": (
                "from typing import TYPE_CHECKING\n"
                "\n"
                "if TYPE_CHECKING:\n"
                "    from repro.protocol.link import send\n"
            ),
        })
        assert tree_findings(tmp_path, ["ML011"]) == []

    def test_downward_import_is_fine(self, tmp_path):
        write_tree(tmp_path, {
            "repro/phy/wave.py": '__all__ = ["f"]\n\n\ndef f():\n    return 1\n',
            "repro/protocol/link.py": "from repro.phy.wave import f\n\nf()\n",
        })
        assert tree_findings(tmp_path, ["ML011"]) == []

    def test_allowlisted_edge_is_not_flagged(self, tmp_path):
        # repro.dsp.fftutils -> kernels is a real allowlist entry.
        write_tree(tmp_path, {
            "repro/kernels/dsp.py": '__all__ = ["fft"]\n\n\ndef fft():\n    return 1\n',
            "repro/dsp/fftutils.py": "from repro.kernels.dsp import fft\n\nfft()\n",
        })
        assert tree_findings(tmp_path, ["ML011"]) == []

    def test_import_cycle_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/utils/alpha.py": "from repro.utils import beta\n",
            "repro/utils/beta.py": "from repro.utils import alpha\n",
        })
        (finding,) = tree_findings(tmp_path, ["ML011"])
        assert "import cycle" in finding.message
        assert "repro.utils.alpha -> repro.utils.beta" in finding.message

    def test_deferred_import_breaks_cycle(self, tmp_path):
        write_tree(tmp_path, {
            "repro/utils/alpha.py": "from repro.utils import beta\n",
            "repro/utils/beta.py": (
                "def late():\n"
                "    from repro.utils import alpha\n"
                "    return alpha\n"
            ),
        })
        assert tree_findings(tmp_path, ["ML011"]) == []

    def test_layer_order_matches_declared_stack(self):
        from repro.lint.rules.ml011_layers import LAYERS, UNCONSTRAINED

        assert [sorted(layer) for layer in LAYERS][0] == ["constants", "errors", "utils"]
        assert "obs" in UNCONSTRAINED and "lint" in UNCONSTRAINED

    def test_allowlist_parses_real_file(self):
        from repro.lint.rules.ml011_layers import load_allowlist

        entries = load_allowlist()
        assert ("repro.sim.engine", "faults") in entries
        assert all(isinstance(line, int) for line in entries.values())


class TestML012Determinism:
    def test_stdlib_random_is_flagged(self):
        source = """\
        import random

        x = random.random()
        """
        (finding,) = findings_for(source, path="src/repro/phy/x.py", select=["ML012"])
        assert "random.random" in finding.message

    def test_aliased_from_import_is_flagged(self):
        source = """\
        from random import choice as pick

        x = pick([1, 2])
        """
        (finding,) = findings_for(source, path="src/repro/phy/x.py", select=["ML012"])
        assert "random.choice" in finding.message

    def test_aliased_time_module_is_flagged(self):
        source = """\
        import time as clock

        t = clock.time()
        """
        (finding,) = findings_for(source, path="src/repro/phy/x.py", select=["ML012"])
        assert "time.time" in finding.message

    def test_datetime_now_is_flagged(self):
        source = """\
        from datetime import datetime

        stamp = datetime.now()
        """
        (finding,) = findings_for(source, path="src/repro/phy/x.py", select=["ML012"])
        assert "wall-clock" in finding.message

    def test_os_urandom_is_flagged(self):
        source = """\
        import os

        blob = os.urandom(8)
        """
        (finding,) = findings_for(source, path="src/repro/phy/x.py", select=["ML012"])
        assert "os.urandom" in finding.message

    def test_perf_counter_and_generator_methods_are_fine(self):
        source = """\
        import time


        def sample(rng):
            t = time.perf_counter()
            return rng.random() + rng.normal(), t
        """
        assert findings_for(source, path="src/repro/phy/x.py", select=["ML012"]) == []

    def test_rng_module_is_exempt(self):
        source = """\
        import os

        seed = os.urandom(8)
        """
        assert findings_for(source, path="src/repro/utils/rng.py", select=["ML012"]) == []

    def test_benchmarks_and_tests_are_exempt(self):
        source = """\
        import time

        t = time.time()
        """
        for path in ("benchmarks/repro/bench.py", "src/repro/x/tests/test_y.py"):
            assert findings_for(source, path=path, select=["ML012"]) == []

    def test_line_pragma_suppresses(self):
        source = """\
        import random

        x = random.random()  # milback: disable=ML012 — fixture jitter
        """
        assert findings_for(source, path="src/repro/phy/x.py", select=["ML012"]) == []


CATALOGUE_MD = """\
# Observability

| name | kind | notes |
| --- | --- | --- |
| `good.metric` | counter | documented and emitted |
| `stale.metric` | counter | documented but gone from the code |
| `engine.<burst>.trials` | counter | placeholder row |
"""


class TestML013ObsCatalogue:
    def make_tree(self, tmp_path, emit_source):
        return write_tree(tmp_path, {
            "docs/OBSERVABILITY.md": CATALOGUE_MD,
            "src/repro/emit.py": emit_source,
        })

    def test_drift_both_directions(self, tmp_path):
        self.make_tree(tmp_path, """\
            from repro import obs

            obs.counter("good.metric").inc()
            obs.counter("undocumented.metric").inc()
            obs.counter(f"engine.{'x'}.trials").inc()
        """)
        findings = tree_findings(tmp_path / "src", ["ML013"])
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("undocumented.metric" in m for m in messages)
        assert any("stale.metric" in m for m in messages)
        (doc_finding,) = [f for f in findings if "stale" in f.message]
        assert doc_finding.path.endswith("OBSERVABILITY.md")

    def test_literal_matching_placeholder_row(self, tmp_path):
        self.make_tree(tmp_path, """\
            from repro import obs

            obs.counter("good.metric").inc()
            obs.counter("stale.metric").inc()
            obs.counter("engine.localization.trials").inc()
        """)
        assert tree_findings(tmp_path / "src", ["ML013"]) == []

    def test_pragma_suppresses_emission_finding(self, tmp_path):
        self.make_tree(tmp_path, """\
            from repro import obs

            obs.counter("good.metric").inc()
            obs.counter("stale.metric").inc()
            obs.counter("engine.localization.trials").inc()
            obs.counter("scratch.metric").inc()  # milback: disable=ML013
        """)
        assert tree_findings(tmp_path / "src", ["ML013"]) == []

    def test_parse_catalogue_normalisation(self):
        from repro.lint.rules.ml013_obs_catalogue import parse_catalogue

        text = """\
        | name | kind |
        | --- | --- |
        | `cache.hits` / `.misses` / `.bypasses{cache=x}` | counter |
        | `bench.kernel.synthesis_{reference,batched}_s` | gauge |
        | `engine.<burst>.trials` | counter |
        """
        names = [name for name, _ in parse_catalogue(textwrap.dedent(text))]
        assert names == [
            "cache.hits",
            "cache.misses",
            "cache.bypasses",
            "bench.kernel.synthesis_reference_s",
            "bench.kernel.synthesis_batched_s",
            "engine.*.trials",
        ]


class TestML014DeadExports:
    def test_dead_export_flagged_used_export_not(self, tmp_path):
        write_tree(tmp_path, {
            "repro/lib.py": (
                '__all__ = [\n    "used",\n    "dead",\n]\n'
                "\n\ndef used():\n    return 1\n\n\ndef dead():\n    return 2\n"
            ),
            "repro/consume.py": "from repro.lib import used\n\nused()\n",
        })
        (finding,) = tree_findings(tmp_path, ["ML014"])
        assert "repro.lib.dead" in finding.message
        assert finding.line == 3  # the "dead" entry inside __all__
        assert finding.severity is Severity.WARNING

    def test_hub_reexport_alive_via_origin_use(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pkg/__init__.py": (
                'from repro.pkg.impl import thing\n\n__all__ = ["thing"]\n'
            ),
            "repro/pkg/impl.py": '__all__ = ["thing"]\n\n\ndef thing():\n    return 1\n',
            "repro/user.py": "from repro.pkg.impl import thing\n\nthing()\n",
        })
        assert tree_findings(tmp_path, ["ML014"]) == []

    def test_attribute_chain_counts_as_use(self, tmp_path):
        write_tree(tmp_path, {
            "repro/lib.py": '__all__ = ["helper"]\n\n\ndef helper():\n    return 1\n',
            "repro/caller.py": "import repro.lib\n\nrepro.lib.helper()\n",
        })
        assert tree_findings(tmp_path, ["ML014"]) == []

    def test_pragma_suppresses(self, tmp_path):
        write_tree(tmp_path, {
            "repro/lib.py": (
                '__all__ = [\n'
                '    "dead",  # milback: disable=ML014 — deliberate API surface\n'
                "]\n\n\ndef dead():\n    return 1\n"
            ),
            "repro/other.py": '__all__ = []\n',
        })
        assert tree_findings(tmp_path, ["ML014"]) == []

    def test_single_module_project_is_silent(self):
        source = """\
        __all__ = ["f"]


        def f():
            return 1
        """
        assert findings_for(source, select=["ML014"]) == []


class TestOnePass:
    def test_each_file_parsed_once_and_checked_only_as_target(self, tmp_path, monkeypatch):
        from repro.lint import ModuleContext, ProjectRule, lint_paths
        from repro.lint.imports import ImportTable

        write_tree(tmp_path, {
            "docs/OBSERVABILITY.md": "# Observability\n",
            "src/repro/alpha.py": '__all__ = ["f"]\n\n\ndef f():\n    return 1\n',
            "src/repro/beta.py": "from repro.alpha import f\n\nf()\n",
            "tests/test_alpha.py": "from repro.alpha import f\n",
            "tests/test_beta.py": "import repro.beta\n",
            "benchmarks/bench_alpha.py": "from repro.alpha import f\n",
        })
        monkeypatch.chdir(tmp_path)

        parsed, tables, checked = [], [], []
        from_source = ModuleContext.from_source.__func__
        from_tree = ImportTable.from_tree.__func__

        def counting_from_source(cls, source, path="<string>"):
            parsed.append(Path(path).resolve())
            return from_source(cls, source, path)

        def counting_from_tree(cls, tree, package=None):
            tables.append(tree)
            return from_tree(cls, tree, package)

        def counting_check(original):
            def check(self, module):
                checked.append((self.rule_id, module.path))
                return original(self, module)
            return check

        monkeypatch.setattr(ModuleContext, "from_source", classmethod(counting_from_source))
        monkeypatch.setattr(ImportTable, "from_tree", classmethod(counting_from_tree))
        per_file_ids = []
        for rule_cls in all_rules():
            if not issubclass(rule_cls, ProjectRule):
                per_file_ids.append(rule_cls.rule_id)
                monkeypatch.setattr(rule_cls, "check", counting_check(rule_cls.check))

        # One target lies inside the tests/ usage root.
        lint_paths(["src", "tests/test_alpha.py"])

        every_file = sorted(path.resolve() for path in tmp_path.rglob("*.py"))
        assert len(every_file) == 5
        assert sorted(parsed) == every_file
        assert len(tables) == len(every_file)
        targets = ["src/repro/alpha.py", "src/repro/beta.py", "tests/test_alpha.py"]
        assert sorted(checked) == sorted(
            (rule_id, target) for rule_id in per_file_ids for target in targets
        )
