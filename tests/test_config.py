"""The config schema: ``dumps``/``loads`` round trips, the defaults against
the hand-written reference text, and the names the benchmark reads."""

import ast
import importlib
import re
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from kerv import cli, harness, simenv, threshold
from kerv.codec import NormKey
from kerv.config import (
    SCHEMA,
    ConfigError,
    CostModel,
    RunConfig,
    SuiteConfig,
    default_config,
    default_config_text,
    dumps,
    loads,
    parse_mapping,
)
from kerv.kinematics import KfParams
from kerv.simenv import DraftNoiseModel
from oracles import reference_default_config_text

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _every_value_changed() -> RunConfig:
    return RunConfig(
        key=NormKey(
            lo=(-2.0, -1.5, -0.75, -3.0, -0.5, -2.5, -1.25),
            hi=(2.0, 1.5, 0.75, 3.0, 0.5, 2.5, 1.25),
            vocab_size=128,
        ),
        kf_params=KfParams(
            process_noise=2e-4, measurement_noise=0.05, initial_variance=0.5, dt=0.1
        ),
        ac=6,
        pl=3,
        comp_n=2,
        depth=7,
        table_path="tables/cal.csv",
        fixed_r=7.5,
        r_max=12.25,
        r_min=0.0,
        cost=CostModel(
            verify_cost=0.9, draft_cost=0.03, kf_cost=0.002, adjust_cost=1e-05, transfer_cost=0.004
        ),
        noise=DraftNoiseModel(q_err=0.3, max_offset=40, zipf_s=1.1, seed=7),
        robot="arm2",
        modes=("kerv", "naive"),
        seed_offset=11,
        suites=(SuiteConfig("a", "pick_place", 3, 10), SuiteConfig("b", "long_horizon", 0, 20)),
    )


def _leaves(obj, prefix=""):
    """(dotted field path, value) for every field, descending into value
    objects and into the per-DoF entries of tuples of numbers."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        path = prefix + f.name
        if is_dataclass(value):
            yield from _leaves(value, path + ".")
        elif isinstance(value, tuple) and value and isinstance(value[0], float):
            yield from ((f"{path}[{i}]", v) for i, v in enumerate(value))
        else:
            yield path, value


def test_dumps_roundtrips_default_config():
    cfg = default_config()
    assert loads(dumps(cfg)) == cfg
    assert default_config_text(3) == dumps(default_config(3))


def test_dumps_roundtrips_every_field_set():
    cfg = _every_value_changed()
    defaults = dict(_leaves(RunConfig()))
    unchanged = [path for path, value in _leaves(cfg) if defaults[path] == value]
    assert unchanged == []  # so a field that dumps or loads drops cannot pass
    assert loads(dumps(cfg)) == cfg


@pytest.mark.parametrize("trials", [50, 3])
def test_default_config_matches_hand_written_reference(trials):
    assert default_config(trials) == loads(reference_default_config_text(trials))


def test_scalar_keys_unchanged():
    ref = parse_mapping(reference_default_config_text())
    scalar = {k for k in ref if not k.startswith(("dof", "suite."))}
    # the reference text leaves the table path at its default, so it never names it
    assert set(SCHEMA) == scalar | {"threshold.table"}
    assert len(SCHEMA) == 25
    # one threshold update rule: no key picks one
    with pytest.raises(ConfigError, match=r"unknown configuration keys: \['threshold.mode'\]"):
        loads(default_config_text() + "threshold.mode = rectified\n")
    # the token at the first rejection is always the verifier's: no key picks it
    with pytest.raises(ConfigError, match=r"unknown configuration keys: \['comp.p_source'\]"):
        loads(default_config_text() + "comp.p_source = verify\n")


def test_hash_inside_a_value_is_kept():
    cfg = replace(default_config(), table_path="runs/#3/table.csv")
    assert loads(dumps(cfg)) == cfg
    text = "# heading\nthreshold.table = runs/#3/t.csv  # trailing note\n\t# indented\n"
    assert loads(text).table_path == "runs/#3/t.csv"


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("robot", "arm\nnoise.q_err = 1.0", "robot"),
        ("robot", "arm #2", "robot"),
        ("robot", " arm", "robot"),
        ("table_path", "my runs #3/t.csv", "threshold.table"),
    ],
    ids=["second-line", "comment", "leading-space", "table-comment"],
)
def test_a_text_value_that_would_not_read_back_is_refused(field, value, key):
    """``dumps`` writes a text value on its own line, so a value that the
    line parser would read back differently (another key, a comment, lost
    spaces) is refused when the config is made, naming its key."""
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} = "):
        replace(default_config(), **{field: value})


def test_a_suite_name_that_no_key_can_hold_is_refused():
    with pytest.raises(ConfigError, match="suite 'bad name'"):
        SuiteConfig("bad name", "reach")


def test_a_suite_name_given_twice_is_refused():
    """Two suites of one name would share their ``suite.<name>.*`` keys,
    so ``dumps`` would write text that loads back as one of them, and a
    run would key both suites' traces and report rows under one name."""
    reach, long = SuiteConfig("a", "reach", 2, 0), SuiteConfig("a", "long_horizon", 2, 4000)
    with pytest.raises(ConfigError, match="suite 'a' is configured more than once"):
        RunConfig(suites=(reach, long))
    with pytest.raises(ConfigError, match="suite 'a'"):
        replace(default_config(), suites=(*default_config().suites, reach, reach))


@pytest.mark.parametrize("robot", ["a=b", "bras-é", ""])
def test_text_values_round_trip(robot):
    cfg = replace(default_config(), robot=robot)
    assert loads(dumps(cfg)) == cfg


@pytest.mark.parametrize(
    "line, key",
    [
        ("cost.verify = -1", "cost.verify"),
        ("noise.q_err = 2", "noise.q_err"),
        ("kf.dt = 0", "kf.dt"),
        ("noise.zipf_s = nan", "noise.zipf_s"),
        ("noise.zipf_s = -inf", "noise.zipf_s"),
        ("dof3 = 2,1", "dof3"),
        ("cost.verify = nan", "cost.verify"),
        ("cost.draft = inf", "cost.draft"),
        ("dof0 = -1e308,1e308", "dof0"),
        ("dof5 = -5e307,5e307", "dof5"),
        (f"codec.vocab_size = {2**53}", "codec.vocab_size"),
    ],
)
def test_section_value_errors_name_the_key(line, key):
    with pytest.raises(ConfigError, match=f"bad value for {key}: "):
        loads(default_config_text() + line + "\n")


# Each of these loaded, then failed in the first kerv episode that built or
# read a filter bank: a window bound past a C ssize_t (the deque's), a
# prediction length past the float range, a prediction pushed past it, and
# the filter's process noise q * dt**4 / 4 past it.
@pytest.mark.parametrize(
    "lines, key",
    [
        ("kf.ac = 100000000000000000000", "kf.ac"),
        ("kf.pl = 1" + "0" * 309, "kf.pl"),
        ("kf.pl = 1" + "0" * 300 + "\nkf.dt = 1e10", "kf.pl"),
        ("kf.dt = 2e77", "kf.dt"),
    ],
    ids=["ac_past_ssize_t", "pl_past_float", "prediction_past_float", "process_noise_past_float"],
)
def test_a_filter_that_fails_mid_run_is_refused_at_load(lines, key):
    with pytest.raises(ConfigError, match=f"^(bad value for )?{key}"):
        loads(default_config_text(1) + lines + "\n")


@pytest.mark.parametrize(
    "lines",
    [
        "kf.dt = 1e77",
        "kf.ac = 3000",
        "kf.pl = 1000000000000000000\nkf.dt = 1e10",
        "kf.pl = 1" + "0" * 300,
    ],
)
def test_a_filter_near_the_float_range_still_loads_and_runs(lines):
    """Settings whose predictions stay finite load, and a kerv episode of
    each runs to its end, its longest possible window included."""
    cfg = loads(default_config_text(1) + lines + "\n")
    row = threshold.CalibrationRow(1.0, 0.7, 15.0, 5.0, 0.08, 0.0, 0.0)
    table = threshold.CalibrationTable({(s.name, cfg.robot): row for s in cfg.suites})
    report, _ = harness.run_suite(cfg, modes=("kerv",), suites=("long",), table=table)
    assert [r.mode for r in report.rows] == ["kerv"]


def test_a_codec_range_whose_poses_could_pass_the_float_range_is_refused_at_load():
    """This key used to load; its long_horizon plans then overflowed with
    numpy warnings only, and a naive run reported a successful episode."""
    with pytest.raises(ConfigError, match="^dof0 range"):
        loads(default_config_text(1) + "dof0 = -3e306,1\ncodec.vocab_size = 2\n")


def test_a_codec_range_near_the_float_range_still_loads_and_runs():
    """A range whose longest episode stays finite loads, and every suite
    runs in naive and ``fixed_relaxed`` without a numpy overflow or
    invalid-value warning."""
    cfg = loads(default_config_text(1) + "dof0 = -1e305,1e305\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report, _ = harness.run_suite(cfg, modes=("naive", "fixed_relaxed"))
    assert len(report.rows) == 2 * len(cfg.suites)


@pytest.mark.parametrize("value", [simenv.MAX_OFFSET + 1, 10**12, 2**63])
def test_a_draft_offset_past_the_bound_is_refused_at_load(value):
    """These loaded or failed without naming the key: 2**20 + 1 loaded, 2**63
    raised a bare IndexError and 10**12 a MemoryError, both from building
    the offset table."""
    with pytest.raises(ConfigError, match="^bad value for noise.max_offset: "):
        loads(default_config_text(1) + f"noise.max_offset = {value}\n")


@pytest.mark.parametrize("value", [1, 3, 40, 60, 5000, simenv.MAX_OFFSET])
def test_a_draft_offset_up_to_the_bound_loads(value):
    assert loads(default_config_text(1) + f"noise.max_offset = {value}\n").noise.max_offset == value


def test_later_assignment_overrides_default_text():
    cfg = loads(default_config_text() + "threshold.table = t.csv\nrun.seed_offset = 5\n")
    assert cfg.table_path == "t.csv" and cfg.seed_offset == 5


def test_perfbench_trace_targets_resolve(monkeypatch):
    """The tracer wraps attributes by looking them up in their owner's
    ``__dict__``; a rename there breaks ``perfbench/run.py --trace 1``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for owner, attr, _ in spans.TARGETS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
    assert callable(vars(threshold).get("_replay_objective"))
    assert callable(simenv.build_plan.cache_clear)
    # every attribute chain the benchmark scripts read off a kerv module
    reads = list(_kerv_attribute_reads(PERFBENCH.glob("*.py")))
    assert len(reads) >= 20  # the scan sees the scripts' reads, so it cannot pass empty
    for where, module, chain in reads:
        obj = importlib.import_module(f"kerv.{module}")
        for i, attr in enumerate(chain):
            assert hasattr(obj, attr), f"{where}: {'.'.join([module, *chain[: i + 1]])}"
            obj = getattr(obj, attr)


def _kerv_attribute_reads(paths):
    """(file:line, module, attribute chain) of each ``module.a.b`` read in
    ``paths`` whose root is a name bound by ``from kerv import module``."""
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "kerv"
            for alias in node.names
        }
        for node in ast.walk(tree):
            chain, root = [], node
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if chain and isinstance(root, ast.Name) and root.id in modules:
                yield f"{path.name}:{node.lineno}", root.id, chain[::-1]


def test_every_source_file_parses_as_python_3_10():
    """``pyproject.toml`` claims Python >= 3.10, but the suite runs only
    under an interpreter that has numpy, which need not be a 3.10 one. So
    this checks each file's grammar against 3.10 (``except*``, for one, is
    3.11 syntax). It checks grammar only: a call or module that 3.10 lacks
    still passes."""
    files = sorted(
        path for part in ("src", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")
    )
    assert len(files) >= 20  # the walk sees the tree, so it cannot pass empty
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_file_call_in_src_names_its_encoding():
    """Every reader in ``src/kerv`` reads UTF-8, so each ``write_text``,
    ``read_text`` and ``open`` call there names its encoding: one that does
    not takes the locale's, and a name that is not ASCII then fails under
    the C locale. A call through a kerv module (``config_mod.read_text``)
    is the package's own reader, which names the encoding inside."""
    calls = []
    for path in sorted((ROOT / "src" / "kerv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr not in ("write_text", "read_text", "open"):
                    continue
                if isinstance(func.value, ast.Name) and func.value.id in modules:
                    continue
            elif not (isinstance(func, ast.Name) and func.id == "open"):
                continue
            named = any(kw.arg == "encoding" for kw in node.keywords)
            calls.append((f"{path.name}:{node.lineno}", named))
    assert len(calls) >= 4  # the walk sees the package's file calls, so it cannot pass empty
    assert [where for where, named in calls if not named] == []


def test_every_text_file_in_src_is_written_atomically():
    """An output file is written whole or not at all: the one
    ``write_text`` call in ``src/kerv`` is the one inside
    ``trace.write_text_atomic``, which writes a temporary file beside the
    target and renames it over, so an interrupted run leaves no truncated
    report, plot file, trace, table or sweep table."""
    inside, stray = [], []
    for path in sorted((ROOT / "src" / "kerv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        atomic = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "write_text_atomic"
        ]
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and func.attr == "write_text":
                where = f"{path.name}:{node.lineno}"
                (inside if any(node.lineno in lines for lines in atomic) else stray).append(where)
    assert len(inside) == 1 and inside[0].startswith("trace.py:")
    assert stray == []


@pytest.mark.parametrize("param", ["n", "ac", "pl"])
def test_cli_sweep_rejects_non_integer_values_before_running(param, tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(default_config_text(trials=1))
    runs = []
    monkeypatch.setattr(harness, "run_suite", lambda *a, **kw: runs.append(a))
    out = tmp_path / "sw"
    rc = cli.main(
        ["sweep", "--config", str(cfg_path), "--out", str(out), "--param", param,
         "--values", "2,1.7", "--suite", "goal", "--trials", "1"]
    )
    assert rc != 0
    assert f"sweep {param} takes integer values" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_cli_sweep_names_the_flag_of_a_value_that_does_not_parse(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(default_config_text(trials=1))
    runs = []
    monkeypatch.setattr(harness, "run_suite", lambda *a, **kw: runs.append(a))
    out = tmp_path / "sw"
    rc = cli.main(
        ["sweep", "--config", str(cfg_path), "--out", str(out), "--param", "r",
         "--values", "9,abc", "--suite", "goal", "--trials", "1"]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: bad value for --values: '9,abc' (could not convert string to float: 'abc')\n"
    )
    assert runs == []
    assert not out.exists()
