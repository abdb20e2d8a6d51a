import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prank
from prank import Domain, read_dataset, write_dataset
from prank.cli import main


def run(args):
    return main(list(args))


def synth_small(tmp_path, name="clean.prnk", fmax=2.0, df=0.02):
    path = tmp_path / name
    assert run(["synth", "--fmax", str(fmax), "--df", str(df), "-o", str(path)]) == 0
    return path


# -------------------------------------------------------------------- synth

def test_synth_defaults_match_benchmark_shape(tmp_path):
    path = synth_small(tmp_path, fmax=2.0, df=0.001)
    ds = read_dataset(path)
    assert ds.data.shape == (4, 4, 2001)
    assert ds.domain is Domain.FREQUENCY
    assert ds.unit_label == "rad/s"
    assert ds.axis_step == pytest.approx(0.001)


def test_synth_invalid_grid_is_usage_error(tmp_path):
    assert run(["synth", "--fmax", "0", "--df", "0.001", "-o", str(tmp_path / "x.prnk")]) == 2


def test_synth_modal_matches_direct_off_resonance(tmp_path):
    direct = synth_small(tmp_path, "direct.prnk", fmax=2.0, df=0.01)
    modal_path = tmp_path / "modal.prnk"
    assert run(["synth", "--fmax", "2.0", "--df", "0.01", "--method", "modal",
                "-o", str(modal_path)]) == 0
    a = read_dataset(direct).data
    b = read_dataset(modal_path).data
    mag_a, mag_b = np.abs(a), np.abs(b)
    # compare away from the sharp resonance peaks
    mask = mag_a < 10.0
    rel = np.abs(mag_b[mask] / mag_a[mask] - 1.0)
    assert np.quantile(rel, 0.99) <= 0.02


def test_synth_modal_truncated_accelerance(tmp_path):
    out = tmp_path / "acc.prnk"
    assert run(["synth", "--fmax", "2.0", "--df", "0.02", "--method", "modal", "--modes", "2",
                "--modal-damping", "0.01", "--quantity", "accelerance", "-o", str(out)]) == 0
    ds = read_dataset(out)
    assert ds.data.shape == (4, 4, 101)
    assert np.all(ds.data[..., 0] == 0)  # accelerance of a fixed chain vanishes at w = 0


@pytest.mark.parametrize("modes", ["0", "-1"])
def test_synth_nonpositive_mode_count_is_usage_error(tmp_path, capsys, modes):
    out = tmp_path / "modal.prnk"
    assert run(["synth", "--fmax", "2.0", "--df", "0.02", "--method", "modal", "--modes", modes,
                "-o", str(out)]) == 2
    assert f"error: --modes must be >= 1, got {modes}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_direct_accelerance_is_usage_error(tmp_path, capsys):
    out = tmp_path / "acc.prnk"
    assert run(["synth", "--fmax", "2.0", "--df", "0.02", "--quantity", "accelerance",
                "-o", str(out)]) == 2
    assert "--method modal" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--modes", "3"], ["--modal-damping", "0.5"]])
def test_synth_direct_rejects_modal_flags(tmp_path, capsys, flag):
    out = tmp_path / "direct.prnk"
    assert run(["synth", "--fmax", "2.0", "--df", "0.02", *flag, "-o", str(out)]) == 2
    assert "--method modal" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ corrupt

def test_corrupt_zero_noise_identity_bytes(tmp_path):
    src = synth_small(tmp_path)
    out = tmp_path / "same.prnk"
    assert run(["corrupt", str(src), "--noise", "0,0,0,0", "-o", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_corrupt_same_seed_identical_files(tmp_path):
    src = synth_small(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.prnk", "b.prnk", "c.prnk"))
    noise = ["--noise", "0.003,0.06,0.003,0.05"]
    assert run(["corrupt", str(src), *noise, "--seed", "7", "-o", str(a)]) == 0
    assert run(["corrupt", str(src), *noise, "--seed", "7", "-o", str(b)]) == 0
    assert run(["corrupt", str(src), *noise, "--seed", "8", "-o", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_corrupt_offsets_are_one_based_per_input(tmp_path):
    src = synth_small(tmp_path)
    out = tmp_path / "off.prnk"
    assert run(["corrupt", str(src), "--offset", "2:0.22", "--offset", "2:0.16",
                "--offset", "2:0.18", "--offset", "2:0.16", "-o", str(out)]) == 0
    delta = read_dataset(out).data - read_dataset(src).data
    assert np.allclose(delta[1, 0], 0.22)
    assert np.allclose(delta[1, 3], 0.16)
    assert np.all(delta[0] == 0)


def test_corrupt_bad_offset_dof_is_usage_error(tmp_path):
    src = synth_small(tmp_path)
    assert run(["corrupt", str(src), "--offset", "9:0.1", "-o", str(tmp_path / "x.prnk")]) == 2


@pytest.mark.parametrize("flags,message", [
    (["--noise", "1,2,3"], "exactly four"),
    (["--offset", "0:0.1"], "must be >= 1"),
    (["--noise", "nan,0,0,0"], "must be finite"),
    (["--noise", "0,inf,0,0"], "must be finite"),
    (["--offset", "2:nan"], "must be finite"),
    (["--offset", "2:inf"], "must be finite"),
])
def test_corrupt_malformed_flag_is_usage_error(tmp_path, capsys, flags, message):
    src = synth_small(tmp_path)
    out = tmp_path / "x.prnk"
    assert run(["corrupt", str(src), *flags, "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- filter

def test_filter_defaults_write_output_and_report(tmp_path, capsys):
    src = synth_small(tmp_path)
    noisy = tmp_path / "noisy.prnk"
    run(["corrupt", str(src), "--noise", "0.003,0.06,0.003,0.05", "-o", str(noisy)])
    out = tmp_path / "filt.prnk"
    assert run(["filter", str(noisy), "-o", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "filt.prnk.report.txt").exists()
    assert list(tmp_path.glob("filt.prnk.sv_*_prf.csv"))
    text = capsys.readouterr().out
    assert "stage: prf" in text and "stage: hankel_in_prf" in text


def test_filter_full_rank_is_near_identity(tmp_path):
    src = tmp_path / "irf.prnk"
    assert run(["convert", str(synth_small(tmp_path)), "--to-time", "-o", str(src)]) == 0
    out = tmp_path / "filt.prnk"
    assert run(["filter", str(src), "--variant", "ph",
                "--prf-rank", "999", "--hankel-rank", "99999", "-o", str(out)]) == 0
    a, b = read_dataset(src).data, read_dataset(out).data
    assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()


def test_filter_onto_a_directory_exits_1_and_leaves_no_temp_file(tmp_path, capsys):
    src = synth_small(tmp_path)
    out = tmp_path / "outdir"
    out.mkdir()
    assert run(["filter", str(src), "--variant", "classic", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.is_dir() and not list(tmp_path.glob("*.tmp"))

def test_filter_frequency_working_domain_is_usage_error(tmp_path):
    src = synth_small(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["filter", str(src), "--domain", "freq", "-o", str(tmp_path / "x.prnk")])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--prf-rank", "--hankel-rank"])
def test_filter_negative_fixed_rank_is_usage_error(tmp_path, capsys, flag):
    # rejected even where the variant never runs that stage
    src = synth_small(tmp_path)
    out = tmp_path / "x.prnk"
    assert run(["filter", str(src), "--variant", "prf", flag, "-1", "-o", str(out)]) == 2
    assert "nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


def test_filter_classic_e15_on_single_input_is_usage_error(tmp_path, capsys):
    # one input leaves one singular value per line, its own e15 noise tail
    src = synth_small(tmp_path)
    single = tmp_path / "single.prnk"
    ds = read_dataset(src)
    write_dataset(ds.with_data(ds.data[:, :1]), single)
    out = tmp_path / "x.prnk"
    assert run(["filter", str(single), "--variant", "classic", "-o", str(out)]) == 2
    assert "e15" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["hankel", "hip"])
def test_filter_e15_on_window_one_is_usage_error(tmp_path, capsys, variant):
    # a window of 1 gives 1 x n Hankel matrices: one singular value is its own e15 tail
    src = synth_small(tmp_path)
    noisy = tmp_path / "noisy.prnk"
    assert run(["corrupt", str(src), "--noise", "0.003,0.06,0.003,0.05", "-o", str(noisy)]) == 0
    out = tmp_path / "x.prnk"
    assert run(["filter", str(noisy), "--variant", variant, "--window", "1", "-o", str(out)]) == 2
    assert "e15" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["prf", "hip"])
def test_filter_cut_spectrum_on_time_variant_is_usage_error(tmp_path, capsys, variant):
    # a band that does not start at 0 has no time record; classic filters it
    ds = read_dataset(synth_small(tmp_path))
    cut = tmp_path / "cut.prnk"
    write_dataset(prank.ResponseDataset(ds.data[..., 50:], Domain.FREQUENCY, 50 * ds.axis_step,
                                        ds.axis_step, ds.unit_label), cut)
    out = tmp_path / "x.prnk"
    assert run(["filter", str(cut), "--variant", variant, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "needs a spectrum that starts at 0" in err and "classic or prf_tsvd" in err
    assert not out.exists()
    assert run(["filter", str(cut), "--variant", "classic", "-o", str(out)]) == 0


def test_filter_hip_report_call_count_equals_prf_rank(tmp_path):
    src = synth_small(tmp_path)
    noisy = tmp_path / "noisy.prnk"
    run(["corrupt", str(src), "--noise", "0.003,0.06,0.003,0.05", "-o", str(noisy)])
    out = tmp_path / "filt.prnk"
    assert run(["filter", str(noisy), "--variant", "hip", "-o", str(out)]) == 0
    text = (tmp_path / "filt.prnk.report.txt").read_text()
    prf_rank = int(text.split("stage: prf")[1].split("rank: ")[1].split()[0])
    calls = int(text.split("stage: hankel_in_prf")[1].split("svd_calls: ")[1].split()[0])
    assert calls == prf_rank


# ------------------------------------------------------------------ metrics

def test_metrics_identical_files(tmp_path, capsys):
    src = synth_small(tmp_path)
    assert run(["metrics", "--ref", str(src), "--test", str(src)]) == 0
    assert "overall_coherence: 1.000000" in capsys.readouterr().out


def test_metrics_negated_dataset(tmp_path, capsys):
    src = synth_small(tmp_path)
    ds = read_dataset(src)
    neg = tmp_path / "neg.prnk"
    write_dataset(ds.with_data(-ds.data), neg)
    assert run(["metrics", "--ref", str(src), "--test", str(neg)]) == 0
    assert "overall_coherence: 0.000000" in capsys.readouterr().out


def test_metrics_csv_outputs(tmp_path):
    src = synth_small(tmp_path)
    prefix = tmp_path / "rep"
    assert run(["metrics", "--ref", str(src), "--test", str(src), "--cmif",
                "--zeros", "2:1", "-o", str(prefix)]) == 0
    assert (tmp_path / "rep.coherence.csv").exists()
    assert (tmp_path / "rep.cmif.csv").exists()


def test_metrics_cmif_without_output_prints_peak(tmp_path, capsys):
    src = synth_small(tmp_path)
    assert run(["metrics", "--ref", str(src), "--test", str(src), "--cmif"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "overall_coherence: 1.000000"
    peak = float(lines[1].removeprefix("cmif_first_line_max: "))
    assert peak == pytest.approx(prank.cmif(read_dataset(src))[:, 0].max(), rel=1e-6)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("prominence", ["1.5", "-1", "nan"])
def test_metrics_prominence_outside_unit_interval_is_usage_error(tmp_path, capsys, prominence):
    src = synth_small(tmp_path)
    prefix = tmp_path / "rep"
    assert run(["metrics", "--ref", str(src), "--test", str(src), "--zeros", "2:1",
                "--zero-prominence", prominence, "-o", str(prefix)]) == 2
    assert "prominence" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))


def test_metrics_zeros_on_time_dataset_is_usage_error(tmp_path, capsys):
    src = synth_small(tmp_path)
    time_path = tmp_path / "time.prnk"
    assert run(["convert", str(src), "--to-time", "-o", str(time_path)]) == 0
    prefix = tmp_path / "rep"
    assert run(["metrics", "--ref", str(time_path), "--test", str(time_path), "--zeros", "2:1",
                "-o", str(prefix)]) == 2
    assert "frequency-domain" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))


def test_metrics_cmif_on_time_dataset_writes_nothing(tmp_path, capsys):
    src = synth_small(tmp_path)
    time_path = tmp_path / "time.prnk"
    assert run(["convert", str(src), "--to-time", "-o", str(time_path)]) == 0
    prefix = tmp_path / "rep"
    assert run(["metrics", "--ref", str(time_path), "--test", str(time_path), "--cmif",
                "-o", str(prefix)]) == 2
    captured = capsys.readouterr()
    assert "frequency-domain" in captured.err and "overall_coherence" not in captured.out
    assert not list(tmp_path.glob("rep*"))


# ------------------------------------------------------------------ convert

def test_convert_round_trip_through_time(tmp_path):
    src = synth_small(tmp_path, df=0.01)
    as_time = tmp_path / "t.prnk"
    back = tmp_path / "back.prnk"
    assert run(["convert", str(src), "--to-time", "-o", str(as_time)]) == 0
    assert read_dataset(as_time).domain is Domain.TIME
    assert run(["convert", str(as_time), "--to-freq", "--unit", "rad/s", "-o", str(back)]) == 0
    a, b = read_dataset(src).data, read_dataset(back).data
    # lossless apart from DC/Nyquist imaginary zeroing
    mask = np.ones(a.shape[-1], dtype=bool)
    mask[0] = mask[-1] = False
    assert np.abs(a[..., mask] - b[..., mask]).max() <= 1e-10 * np.abs(a).max()


def test_convert_csv_export(tmp_path):
    src = synth_small(tmp_path)
    csv_dir = tmp_path / "csv"
    assert run(["convert", str(src), "--csv-dir", str(csv_dir)]) == 0
    assert len(list(csv_dir.glob("*.csv"))) == 16


def test_convert_csv_export_of_time_dataset_is_unchanged(tmp_path):
    # the hash pins the bytes written when time data were held as complex128
    # (imag column 0.0, phase pi for negative values and -0.0)
    values = np.array([0.0, -0.0, 1.5, -2.25, 1e-300, -3.0e10, 0.1, 7.0, -1e-7, 2.0**-1074, 123.456, -0.5])
    src = tmp_path / "t.prnk"
    write_dataset(prank.ResponseDataset(values.reshape(2, 1, 6), Domain.TIME, 0.0, 0.25, "s"), src)
    assert run(["convert", str(src), "--csv-dir", str(tmp_path / "csv")]) == 0
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "csv").glob("*.csv")):
        digest.update(path.name.encode() + path.read_bytes())
    assert digest.hexdigest() == "a3246a8a0d1666c0da5ad9fcbb53801a8c579be5ab6179c6b6f8013afbf9c590"


def test_convert_needs_destination(tmp_path):
    src = synth_small(tmp_path)
    assert run(["convert", str(src)]) == 2


def test_convert_overlong_unit_label_is_format_error_and_writes_nothing(tmp_path, capsys):
    # the header holds the label's UTF-8 length in a u16
    as_time = tmp_path / "t.prnk"
    assert run(["convert", str(synth_small(tmp_path)), "--to-time", "-o", str(as_time)]) == 0
    before = sorted(tmp_path.iterdir())
    assert run(["convert", str(as_time), "--to-freq", "--unit", "x" * 70000, "-o", str(tmp_path / "f.prnk")]) == 2
    assert "70000 bytes" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


# ------------------------------------------------------- errors and config

def test_bad_magic_is_format_error(tmp_path):
    bad = tmp_path / "bad.prnk"
    bad.write_bytes(b"JUNK" * 10)
    assert run(["metrics", "--ref", str(bad), "--test", str(bad)]) == 2


def test_missing_file_is_numeric_error(tmp_path):
    assert run(["filter", str(tmp_path / "nope.prnk"), "-o", str(tmp_path / "x.prnk")]) == 1


def test_nonfinite_axis_start_in_file_is_usage_error(tmp_path, capsys):
    # a hand-written header: write_dataset cannot produce this file
    header = struct.pack("<IIIBddH", 1, 1, 4, Domain.TIME.value, np.nan, 1.0, 2)
    bad = tmp_path / "nan_axis.prnk"
    bad.write_bytes(b"PRNKDS01" + header + b"Hz" + np.ones(4, dtype="<c16").tobytes())
    out = tmp_path / "x.prnk"
    assert run(["filter", str(bad), "--variant", "hankel", "-o", str(out)]) == 2
    assert "error: axis_start must be finite" in capsys.readouterr().err
    assert not out.exists()


def nan_dataset(tmp_path):
    src = synth_small(tmp_path)
    data = np.array(read_dataset(src).data)
    data[1, 2, 7] = np.nan
    bad = tmp_path / "nan.prnk"
    write_dataset(read_dataset(src).with_data(data), bad)
    return bad


def test_nonfinite_data_is_numeric_error(tmp_path, capsys):
    bad = nan_dataset(tmp_path)
    assert run(["filter", str(bad), "--variant", "hankel", "-o", str(tmp_path / "x.prnk")]) == 1
    assert "finite" in capsys.readouterr().err


def test_nonfinite_data_is_numeric_error_classic(tmp_path, capsys):
    bad = nan_dataset(tmp_path)
    assert run(["filter", str(bad), "--variant", "classic", "-o", str(tmp_path / "x.prnk")]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["prf", "hip"])
def test_nonfinite_data_is_numeric_error_prf(tmp_path, capsys, variant):
    bad = nan_dataset(tmp_path)
    assert run(["filter", str(bad), "--variant", variant, "-o", str(tmp_path / "x.prnk")]) == 1
    assert "finite" in capsys.readouterr().err


def test_prf_backend_failure_is_numeric_error(tmp_path, capsys, monkeypatch):
    src = synth_small(tmp_path)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    out = tmp_path / "x.prnk"
    assert run(["filter", str(src), "--variant", "prf", "-o", str(out)]) == 1
    assert "converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--cmif"]])
def test_metrics_nonfinite_test_file_is_numeric_error(tmp_path, capsys, extra):
    src = synth_small(tmp_path)
    bad = nan_dataset(tmp_path)
    assert run(["metrics", "--ref", str(src), "--test", str(bad)] + extra) == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err and "overall_coherence" not in captured.out


@pytest.mark.parametrize("flag,value,method", [
    ("--mass", "nan", "modal"),
    ("--mass", "nan", "direct"),
    ("--stiff", "inf", "direct"),
    ("--damp", "nan", "modal"),
    ("--modal-damping", "nan", "modal"),
    ("--modal-damping", "inf", "modal"),
])
def test_synth_nonfinite_parameter_is_usage_error(tmp_path, capsys, flag, value, method):
    out = tmp_path / "x.prnk"
    args = ["synth", "--fmax", "2.0", "--df", "0.02", flag, value, "--method", method, "-o", str(out)]
    assert run(args) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_synth_negative_modal_damping_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.prnk"
    args = ["synth", "--fmax", "2.0", "--df", "0.5", "--method", "modal", "--modal-damping", "-0.5", "-o", str(out)]
    assert run(args) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["filter", "--bogus-flag"])
    assert err.value.code == 2


@pytest.mark.parametrize("command,args,config,config_flags,flags", [
    pytest.param("synth", ["--fmax", "2.0"], "df=0.5\ndofs=3\n", ["--df", "0.5", "--dofs", "3"],
                 ["--dofs", "2"], id="synth"),
    pytest.param("corrupt", ["SRC"], "noise=0,0.1,0,0.1\nseed=1\n",
                 ["--noise", "0,0.1,0,0.1", "--seed", "1"], ["--seed", "2"], id="corrupt"),
    pytest.param("filter", ["SRC"], "variant=ph\nmu=0.08\nwindow=40\n",
                 ["--variant", "ph", "--mu", "0.08", "--window", "40"],
                 ["--variant", "hankel", "--hankel-rank", "9999"], id="filter"),
    pytest.param("metrics", ["--ref", "SRC", "--test", "SRC"], "cmif\nzeros=2:1\n",
                 ["--cmif", "--zeros", "2:1"], ["--zeros", "1:1"], id="metrics"),
    pytest.param("convert", ["SRC"], "to-time\n", ["--to-time"], [], id="convert"),
])
def test_config_file_defaults_with_flag_precedence(tmp_path, capsys, command, args, config,
                                                   config_flags, flags):
    # a config file acts as its lines spelled out as flags before the explicit
    # ones, so an explicit flag wins; each case's flag changes the output, and
    # so does each case's config, in every spelling argparse accepts
    src = synth_small(tmp_path)
    args = [str(src) if a == "SRC" else a for a in args]
    cfg = tmp_path / "prank.cfg"
    cfg.write_text(config)

    def outputs(name, options):
        """(stdout lines, {file name: lines}) of one run writing into its own folder."""
        folder = tmp_path / name
        folder.mkdir()
        assert run([command, *args, *options, *flags, "-o", str(folder / "out")]) == 0
        files = {p.name: drop_seconds(p.read_bytes()) for p in folder.iterdir()}
        return drop_seconds(capsys.readouterr().out.encode()), files

    expected = outputs("flags", config_flags)
    assert expected[1]
    for name, spelling in (("separate", ["--config", str(cfg)]), ("equals", [f"--config={cfg}"]),
                           ("abbreviated", ["--conf", str(cfg)])):
        assert outputs(name, spelling) == expected, name
    if command == "filter":  # a hankel-only run has no prf stage
        assert b"stage: hankel" in expected[0] and b"stage: prf" not in expected[0]


def test_config_files_apply_in_order_under_explicit_flags(tmp_path, capsys):
    # every --config file is read in the order given, so a later file's line
    # wins, and an explicit flag wins over every file wherever it stands
    src = synth_small(tmp_path)
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text("variant=prf\nprf-rank=2\n")
    second.write_text("prf-rank=3\n")
    files = ["--config", str(first), "--config", str(second)]
    for flags, rank in (([], 3), (["--prf-rank", "4"], 4)):
        assert run(["filter", str(src), *flags, *files, "-o", str(tmp_path / "x.prnk")]) == 0
        out = capsys.readouterr().out
        assert "stage: prf\n" in out and "stage: hankel" not in out and f"  rank: {rank}\n" in out


def drop_seconds(data):
    """The lines of ``data`` (bytes) without the timing lines."""
    return [line for line in data.splitlines() if b"seconds" not in line]


@pytest.mark.parametrize("command", ["synth", "corrupt", "filter", "metrics", "convert"])
def test_every_command_help_lists_config(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    src = synth_small(tmp_path)
    cfg = tmp_path / "prank.cfg"
    cfg.write_text("# hankel only\n\n   \nvariant = hankel\n  # hankel-rank=1\nhankel-rank=9999\n")
    out = tmp_path / "filt.prnk"
    assert run(["filter", str(src), "--config", str(cfg), "-o", str(out)]) == 0
    text = (tmp_path / "filt.prnk.report.txt").read_text()
    # a parsed comment would have set rank 1; the config's rank 9999 is full
    assert "stage: hankel" in text and "stage: prf" not in text
    assert "  rank: 100\n" in text


def test_config_bare_key_sets_flag(tmp_path, capsys):
    # a line holding only a key is the bare flag --key
    src = synth_small(tmp_path)
    cfg = tmp_path / "metrics.cfg"
    cfg.write_text("cmif\n")
    assert run(["metrics", "--ref", str(src), "--test", str(src), "--config", str(cfg)]) == 0
    assert "cmif_first_line_max: " in capsys.readouterr().out


@pytest.mark.parametrize("exists", [False, True], ids=["missing", "existing"])
def test_ambiguous_config_abbreviation_is_usage_error_before_any_read(tmp_path, capsys, monkeypatch, exists):
    # metrics --c could be --config or --cmif: a usage error, whether or not the
    # file exists, and raised before the file is opened
    src = synth_small(tmp_path)
    cfg = tmp_path / "prank.cfg"
    if exists:
        cfg.write_text("cmif\n")
    reads, read_text = [], Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: reads.append(self) or read_text(self, *a, **k))
    with pytest.raises(SystemExit) as err:
        main(["metrics", "--ref", str(src), "--test", str(src), "--c", str(cfg)])
    assert err.value.code == 2 and reads == []
    assert "ambiguous option: --c could match --config, --cmif" in capsys.readouterr().err


def test_unknown_command_is_usage_error_before_any_config_read(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus", "--config", str(tmp_path / "nope.cfg")])
    assert err.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_config_flag_without_path_is_usage_error(tmp_path):
    src = synth_small(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["filter", str(src), "-o", str(tmp_path / "x.prnk"), "--config"])
    assert err.value.code == 2


def test_missing_config_file_is_numeric_error(tmp_path, capsys):
    # a path that does not exist exits 1, like a missing input dataset
    src = synth_small(tmp_path)
    out = tmp_path / "x.prnk"
    assert run(["filter", str(src), "--config", str(tmp_path / "nope.cfg"), "-o", str(out)]) == 1
    assert "nope.cfg" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_config_file_is_usage_error(tmp_path, capsys):
    src = synth_small(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe variant=prf")
    out = tmp_path / "x.prnk"
    assert run(["filter", str(src), "--config", str(cfg), "-o", str(out)]) == 2
    assert "decode" in capsys.readouterr().err
    assert not out.exists()


def child_env():
    """Environment in which a child imports prank from where this process
    did (an install or src/)."""
    src = str(Path(prank.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "ds.prnk"
    proc = subprocess.run(
        [sys.executable, "-m", "prank.cli", "synth", "--fmax", "1.0", "--df", "0.05",
         "-o", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert read_dataset(out).n_bins == 21


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency
    code = "import prank.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_commands_do_not_load_numpy_ma(tmp_path):
    # np.median and friends import numpy.ma, tens of milliseconds of every CLI process
    clean, noisy = tmp_path / "clean.prnk", tmp_path / "noisy.prnk"
    commands = [
        ["synth", "--dofs", "4", "--fmax", "4.0", "--df", "0.02", "-o", str(clean)],
        ["corrupt", str(clean), "--noise", "0.003,0.06,0.003,0.05", "--seed", "0", "--offset", "2:0.2",
         "-o", str(noisy)],
    ] + [["filter", str(noisy), "--variant", v.value, "-o", str(tmp_path / f"{v.value}.prnk")]
         for v in prank.Variant]
    code = ("import contextlib, io, sys\n"
            "from prank.cli import main\n"
            f"for args in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(args) == 0, args\n"
            "    assert 'numpy.ma' not in sys.modules, args[0] + ' ' + args[-1]\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
