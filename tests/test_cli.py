"""CLI smoke tests (python -m repro ...)."""

import pytest

from repro.__main__ import main

_SOURCE = """
int data[64];
int checksum;
int main(void) {
    int i; int r;
    for (r = 0; r < 10; r++)
        for (i = 0; i < 64; i++) data[i] = (data[i] + i) & 1023;
    checksum = data[7];
    return 0;
}
"""


@pytest.fixture()
def binary(tmp_path):
    source = tmp_path / "kernel.c"
    source.write_text(_SOURCE)
    out = tmp_path / "kernel.sxe"
    assert main(["compile", str(source), "-O", "1", "-o", str(out)]) == 0
    assert out.exists()
    return out


def test_compile_and_run(binary, capsys):
    assert main(["run", str(binary), "--read", "checksum"]) == 0
    output = capsys.readouterr().out
    assert "halted: True" in output
    assert "checksum" in output


def test_partition(binary, capsys):
    assert main(["partition", str(binary), "--cpu-mhz", "200"]) == 0
    output = capsys.readouterr().out
    assert "application speedup" in output
    assert "energy savings" in output
    assert "pipeline" in output  # per-pass wall clock


def test_partition_multi_device(binary, capsys):
    assert main([
        "partition", str(binary),
        "--devices", "fabric:40000", "fabric:40000", "cgra:20000@150",
        "--algorithm", "greedy",
    ]) == 0
    output = capsys.readouterr().out
    assert "fabric1" in output
    assert "cgra0" in output
    assert "algorithm           : greedy" in output


def test_partition_explicit_passes(binary, capsys):
    assert main([
        "partition", str(binary),
        "--passes", "filter,place,legalize,report",
        "--algorithm", "gclp",
    ]) == 0
    output = capsys.readouterr().out
    assert "legalize" in output


@pytest.mark.parametrize("spec", [
    "quantum:100",       # unknown kind
    "fabric:lots",       # non-numeric gates
    "fabric:nan",        # non-finite gates
    "fabric:inf",
    "fabric:-5",         # non-positive gates
    "fabric:0",
    "fabric:1000@-3",    # non-positive clock
    "cgra:1000@0",       # a zero clock must not fall back to the default
    "cgra:1000@nan",
])
def test_partition_rejects_bad_device_spec(binary, spec):
    with pytest.raises(SystemExit, match="bad device spec"):
        main(["partition", str(binary), "--devices", spec])


def test_decompile(binary, capsys):
    assert main(["decompile", str(binary), "--function", "main"]) == 0
    output = capsys.readouterr().out
    assert "function main()" in output
    assert "loop header" in output


def test_vhdl(binary, tmp_path, capsys):
    out = tmp_path / "kernel.vhd"
    assert main(["vhdl", str(binary), "-o", str(out)]) == 0
    text = out.read_text()
    assert "entity" in text and "architecture rtl" in text


def test_partition_reports_failure_for_switch_binary(tmp_path, capsys):
    source = tmp_path / "sw.c"
    source.write_text("""
int checksum;
int pick(int x) {
    switch (x) {
    case 0: return 1; case 1: return 2; case 2: return 3;
    case 3: return 4; case 4: return 5; default: return 0;
    }
}
int main(void) { checksum = pick(3); return 0; }
""")
    out = tmp_path / "sw.sxe"
    assert main(["compile", str(source), "-o", str(out)]) == 0
    assert main(["partition", str(out)]) == 1
    assert "recovery failed" in capsys.readouterr().out.lower()
    # the extension flag recovers it
    assert main(["partition", str(out), "--jump-tables"]) == 0


def test_sweep_prints_one_row_per_benchmark(capsys):
    assert main(["sweep", "brev", "--serial"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "===== MIPS-200MHz + xc2v250 (-O1) ====="
    row = lines[1].split()
    assert row[:2] == ["brev", "speedup"]
    assert float(row[2].rstrip("x")) > 1.0
    assert row[-1] == "gates"
    assert lines[2].startswith("  AVERAGE")
    assert lines[2].endswith("(1/1 recovered)")


def test_sweep_prints_one_section_per_cpu_clock(capsys):
    assert main(["sweep", "brev", "--cpu-mhz", "40", "400",
                 "--serial"]) == 0
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("=====")]
    assert headers == [
        "===== MIPS-40MHz + xc2v250 (-O1) =====",
        "===== MIPS-400MHz + xc2v250 (-O1) =====",
    ]


@pytest.mark.parametrize("flag", [
    ["--trace-threshold", "1"],
    ["--replan-threshold", "1"],
    ["--no-trace-persist"],
])
def test_retired_trace_flags_are_rejected(binary, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(binary), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "submit"])
def test_retired_service_commands_are_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_stats_without_saved_telemetry_fails(tmp_path, capsys):
    missing = tmp_path / "last_stats.json"
    assert main(["stats", "--file", str(missing)]) == 1
    assert "no saved telemetry" in capsys.readouterr().err


def test_dynamic_prints_static_and_dynamic_columns(capsys):
    assert main(["dynamic", "brev", "--platform", "mips200", "--serial"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("===== MIPS-200MHz")
    assert lines[1].split() == [
        "benchmark", "static", "dynamic", "warm", "gap", "%", "energy", "%",
        "kernels", "events",
    ]
    row = lines[3].split()
    assert row[0] == "brev"
    static, dynamic, warm = (float(v) for v in row[1:4])
    assert static > 1.0 and dynamic > 1.0 and warm > 1.0
    assert int(row[6]) >= 1  # resident kernels at the end of the run
    assert lines[4].split()[0] == "AVERAGE"
    assert lines[-1].startswith("worst warm gap vs static partition:")


@pytest.mark.parametrize("flag", [
    "--interval", "--repartition-samples", "--cad-latency", "--max-share",
])
def test_dynamic_rejects_non_positive_knobs(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dynamic", "brev", flag, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"error: argument {flag}: must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["dynamic", "brev", "--regions", "-1"], "--regions"),
    (["dynamic", "brev", "--jobs", "0"], "--jobs"),
    (["dynamic", "brev", "--jobs", "-3"], "--jobs"),
    (["sweep", "brev", "--jobs", "0"], "--jobs"),
    (["sweep", "brev", "--jobs", "-3"], "--jobs"),
    (["sweep", "nosuch"], "benchmarks"),
    (["dynamic", "nosuch"], "benchmarks"),
    (["dynamic", "--apps", "brev", "nosuch"], "--apps"),
    (["sweep", "brev", "--device", "xc9"], "--device"),
    (["partition", "kernel.sxe", "--device", "xc9"], "--device"),
    (["dynamic", "brev", "--platform", "mips200", "nosuch"], "--platform"),
], ids=["dynamic-regions-negative", "dynamic-jobs-zero", "dynamic-jobs-negative",
        "sweep-jobs-zero", "sweep-jobs-negative", "sweep-unknown-benchmark",
        "dynamic-unknown-benchmark", "dynamic-unknown-app",
        "sweep-unknown-device", "partition-unknown-device",
        "dynamic-unknown-platform"])
def test_bad_counts_are_usage_errors(argv, flag, capsys):
    # a negative region count must not reach Platform.with_regions, a
    # non-positive worker count must not quietly run serially, and an
    # unknown benchmark name must not surface as a KeyError traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"error: argument {flag}: must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "brev", "--cpu-mhz", "0", "--serial"],
    ["sweep", "brev", "--cpu-mhz", "200", "-5", "--serial"],
    ["partition", "kernel.sxe", "--cpu-mhz", "0"],
    ["partition", "kernel.sxe", "--cpu-mhz", "nan"],
])
def test_non_positive_cpu_clock_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "error: argument --cpu-mhz: must be" in err
    assert "Traceback" not in err


def test_truncated_binary_reports_a_typed_error(binary, capsys):
    truncated = binary.with_name("truncated.sxe")
    truncated.write_bytes(binary.read_bytes()[:10])
    assert main(["partition", str(truncated)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "truncated" in captured.err
    assert "Traceback" not in captured.err
