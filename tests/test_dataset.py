import numpy as np
import pytest

from prank import (
    AxisError,
    DimensionMismatch,
    Domain,
    DomainError,
    FormatError,
    LengthError,
    ResponseDataset,
    flatten,
    read_dataset,
    to_frequency,
    to_time,
    unflatten,
    write_dataset,
)
from prank.dataset import export_all_csv, export_csv


def make_ds(data, domain=Domain.FREQUENCY, **kw):
    return ResponseDataset(np.asarray(data, dtype=complex), domain, **kw)


# ---------------------------------------------------------------- container

def test_construction_validates_shape_and_axis():
    with pytest.raises(DimensionMismatch):
        make_ds(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        make_ds(np.ones((2, 3, 1)))
    with pytest.raises(AxisError):
        make_ds(np.ones((1, 1, 4)), axis_step=0.0)
    with pytest.raises(AxisError):
        make_ds(np.ones((1, 1, 4)), axis_step=-1.0)


@pytest.mark.parametrize("axis", [
    {"axis_start": np.nan},
    {"axis_start": np.inf},
    {"axis_start": -np.inf},
    {"axis_step": np.inf},
    {"axis_step": np.nan},
])
def test_construction_rejects_nonfinite_axis(axis):
    with pytest.raises(AxisError, match="finite"):
        make_ds(np.ones((1, 1, 4)), **axis)


def test_time_domain_must_be_exactly_real():
    with pytest.raises(DomainError):
        make_ds(np.ones((1, 1, 4)) * (1 + 1e-300j), Domain.TIME)
    ds = make_ds(np.ones((1, 1, 4)), Domain.TIME)
    assert np.all(ds.data.imag == 0.0)


def test_time_domain_data_is_stored_as_float64():
    values = np.arange(8.0).reshape(1, 2, 4)
    for given in (values, values.astype(complex), values.astype(np.float32), values.astype(int)):
        ds = ResponseDataset(given, Domain.TIME)
        assert ds.data.dtype == np.float64 and ds.data.flags.c_contiguous
        assert np.array_equal(ds.data, values)
    assert make_ds(np.ones((1, 1, 4))).data.dtype == np.complex128


def test_time_domain_complex_with_zero_imaginary_part_is_stored_real():
    data = np.array([[[1.0 + 0.0j, -2.5 - 0.0j, 0.0 + 0.0j, 3e-300 + 0.0j]]])
    ds = ResponseDataset(data, Domain.TIME)
    assert not np.iscomplexobj(ds.data)
    assert np.array_equal(ds.data, data.real)
    with pytest.raises(DomainError):
        ResponseDataset(data + complex(0.0, np.nan), Domain.TIME)


def test_time_domain_stays_float64_through_bridge_flatten_and_io(tmp_path):
    rng = np.random.default_rng(8)
    spec = rng.standard_normal((2, 3, 9)) + 1j * rng.standard_normal((2, 3, 9))
    t = to_time(make_ds(spec))
    assert t.data.dtype == np.float64
    back = unflatten(flatten(t.data), 2, 3)
    assert back.dtype == np.float64 and np.array_equal(back, t.data)
    assert to_time(to_frequency(t)).data.dtype == np.float64
    path = tmp_path / "t.prnk"
    write_dataset(t, path)
    read = read_dataset(path)
    assert read.domain is Domain.TIME and read.data.dtype == np.float64
    assert np.array_equal(read.data, t.data)


def test_time_domain_file_keeps_the_complex_byte_layout(tmp_path):
    # the .prnk payload is complex in both domains: time values go out as (value, +0.0)
    values = np.array([[[1.5, -0.0, -2.0, 4e-310]]])
    path = tmp_path / "t.prnk"
    write_dataset(ResponseDataset(values, Domain.TIME), path)
    payload = path.read_bytes()[-values.size * 16:]
    assert payload == values.astype("<c16").tobytes()


def test_data_is_immutable():
    ds = make_ds(np.ones((1, 1, 4)))
    with pytest.raises(ValueError):
        ds.data[0, 0, 0] = 2.0


@pytest.mark.parametrize("domain, dtype", [(Domain.FREQUENCY, complex), (Domain.TIME, float)],
                         ids=["frequency", "time"])
def test_construction_leaves_the_callers_array_writeable(domain, dtype):
    a = np.zeros((1, 1, 4), dtype)
    ds = ResponseDataset(a, domain)
    assert a.flags.writeable and not ds.data.flags.writeable
    a[0, 0, 0] = 1.0
    assert ds.data[0, 0, 0] == 0.0


# ---------------------------------------------------------------- flattening

def test_flatten_single_entry_is_identity_column():
    values = np.arange(6.0) + 1j
    ds = make_ds(values.reshape(1, 1, 6))
    flat = flatten(ds.data)
    assert flat.shape == (6, 1)
    assert np.array_equal(flat[:, 0], values)


def test_flatten_column_order_output_major():
    # column 1 of a 4x4 dataset holds entry (o=1, i=0)
    rng = np.random.default_rng(0)
    data = rng.standard_normal((4, 4, 7)) + 1j * rng.standard_normal((4, 4, 7))
    flat = flatten(make_ds(data).data)
    assert np.array_equal(flat[:, 1], data[1, 0, :])
    assert np.array_equal(flat[:, 4], data[0, 1, :])


def test_flatten_index_map_by_hand():
    # data[o][i][k] = 100 o + 10 i + k; column 5 -> (o=1, i=2), row 4 -> k=4
    data = np.zeros((2, 3, 5), dtype=complex)
    for o in range(2):
        for i in range(3):
            for k in range(5):
                data[o, i, k] = 100 * o + 10 * i + k
    flat = flatten(make_ds(data).data)
    assert flat[4, 5] == 100 * 1 + 10 * 2 + 4


def test_unflatten_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    for n_o, n_i, n_k in [(1, 1, 2), (4, 4, 9), (3, 5, 4), (7, 2, 3)]:
        data = rng.standard_normal((n_o, n_i, n_k)) + 1j * rng.standard_normal((n_o, n_i, n_k))
        ds = make_ds(data, axis_start=0.5, axis_step=0.25)
        assert np.array_equal(unflatten(flatten(ds.data), n_o, n_i), ds.data)


def test_unflatten_dimension_mismatch():
    flat = flatten(make_ds(np.ones((4, 4, 3))).data)
    with pytest.raises(DimensionMismatch):
        unflatten(flat, 3, 5)


# ---------------------------------------------------------------- time bridge

def test_to_time_dc_only_spectrum_gives_constant():
    n_k = 9
    n = 2 * (n_k - 1)
    spec = np.zeros((1, 1, n_k), dtype=complex)
    spec[0, 0, 0] = n
    ds = to_time(make_ds(spec))
    assert ds.domain is Domain.TIME
    assert np.allclose(ds.data.real, 1.0, atol=1e-14)
    assert np.all(ds.data.imag == 0.0)


def test_to_time_output_is_exactly_real():
    rng = np.random.default_rng(2)
    spec = rng.standard_normal((2, 2, 17)) + 1j * rng.standard_normal((2, 2, 17))
    ds = to_time(make_ds(spec))
    assert np.all(ds.data.imag == 0.0)


def test_round_trip_freq_time_freq():
    # Hermitian-consistent spectra: start from real time data
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((3, 2, 64))
    spec = np.fft.rfft(samples, axis=-1)
    ds = make_ds(spec, axis_start=0.0, axis_step=0.5)
    back = to_frequency(to_time(ds))
    scale = np.abs(ds.data).max()
    assert np.abs(back.data - ds.data).max() <= 1e-10 * scale
    assert back.axis_step == pytest.approx(ds.axis_step, rel=1e-12)


def test_round_trip_time_freq_time():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((2, 2, 50))
    ds = ResponseDataset(samples.astype(complex), Domain.TIME, 0.0, 0.125, "s")
    back = to_time(to_frequency(ds))
    assert np.abs(back.data - ds.data).max() <= 1e-10 * np.abs(ds.data).max()
    assert back.axis_step == pytest.approx(ds.axis_step, rel=1e-12)


def test_round_trip_angular_units():
    rng = np.random.default_rng(5)
    spec = np.fft.rfft(rng.standard_normal((1, 1, 40)), axis=-1)
    ds = ResponseDataset(spec, Domain.FREQUENCY, 0.0, 0.01, "rad/s")
    t = to_time(ds)
    assert t.axis_step == pytest.approx(2 * np.pi / (40 * 0.01))
    back = to_frequency(t, unit_label="rad/s")
    assert back.axis_step == pytest.approx(0.01, rel=1e-12)
    assert np.abs(back.data - ds.data).max() <= 1e-10 * np.abs(ds.data).max()


def test_parseval():
    rng = np.random.default_rng(6)
    spec = rng.standard_normal((1, 1, 33)) + 1j * rng.standard_normal((1, 1, 33))
    ds = make_ds(spec)
    t = to_time(ds)
    n = t.n_bins
    zeroed = np.array(spec[0, 0])
    zeroed[0] = zeroed[0].real
    zeroed[-1] = zeroed[-1].real
    full_energy = np.abs(zeroed[0]) ** 2 + np.abs(zeroed[-1]) ** 2 + 2 * np.sum(np.abs(zeroed[1:-1]) ** 2)
    time_energy = np.sum(np.abs(t.data[0, 0]) ** 2)
    assert time_energy == pytest.approx(full_energy / n, rel=1e-9)


def test_bridge_errors():
    tds = ResponseDataset(np.ones((1, 1, 4)), Domain.TIME)
    with pytest.raises(DomainError):
        to_time(tds)
    with pytest.raises(DomainError):
        to_frequency(make_ds(np.ones((1, 1, 4))))
    with pytest.raises(AxisError):
        to_time(make_ds(np.ones((1, 1, 4)), axis_start=1.0))
    odd = ResponseDataset(np.ones((1, 1, 5)), Domain.TIME)
    with pytest.raises(LengthError):
        to_frequency(odd)


# ---------------------------------------------------------------- file format

def test_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((3, 2, 5)) + 1j * rng.standard_normal((3, 2, 5))
    ds = ResponseDataset(data, Domain.FREQUENCY, 0.25, 0.5, "rad/s")
    path = tmp_path / "ds.prnk"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.data, ds.data)
    assert back.domain is ds.domain
    assert back.axis_start == ds.axis_start
    assert back.axis_step == ds.axis_step
    assert back.unit_label == ds.unit_label


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.prnk"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        read_dataset(path)


# the file is 8 magic + 31 header + 2 label ("Hz") + 4 * 16 payload bytes
@pytest.mark.parametrize("part, cut", [("header", 20), ("unit label", 40), ("payload", 98)],
                         ids=["header", "label", "payload"])
def test_truncated_payload_reports_offset(tmp_path, part, cut):
    ds = make_ds(np.ones((1, 1, 4)))
    path = tmp_path / "ds.prnk"
    write_dataset(ds, path)
    blob = path.read_bytes()
    assert len(blob) == 105
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError, match=f"truncated {part} at byte {cut}"):
        read_dataset(path)


def test_malformed_unit_label_is_format_error(tmp_path):
    path = tmp_path / "ds.prnk"
    write_dataset(make_ds(np.ones((1, 1, 4))), path)
    blob = bytearray(path.read_bytes())
    blob[8 + 31 + 1] = 0xFF  # second byte of the label
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unit label is not UTF-8 at byte 40"):
        read_dataset(path)


def test_unit_label_longer_than_its_u16_length_is_format_error(tmp_path):
    # 65535 UTF-8 bytes round-trip; one more raises before any file is made
    path = tmp_path / "ds.prnk"
    label = "é" * 32767 + "x"
    write_dataset(make_ds(np.ones((1, 1, 4)), unit_label=label), path)
    assert read_dataset(path).unit_label == label
    path.unlink()
    with pytest.raises(FormatError, match="65536 bytes"):
        write_dataset(make_ds(np.ones((1, 1, 4)), unit_label="é" * 32768), path)
    assert not list(tmp_path.iterdir())


def test_trailing_bytes_rejected(tmp_path):
    ds = make_ds(np.ones((1, 1, 4)))
    path = tmp_path / "ds.prnk"
    write_dataset(ds, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 3)
    with pytest.raises(FormatError, match="3 trailing bytes"):
        read_dataset(path)


def test_unknown_domain_tag(tmp_path):
    ds = make_ds(np.ones((1, 1, 4)))
    path = tmp_path / "ds.prnk"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[8 + 12] = 9  # domain byte follows the three u32 counts
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="domain"):
        read_dataset(path)


# ---------------------------------------------------------------- CSV export

def test_export_csv_single_entry(tmp_path):
    ds = make_ds(np.array([[[1.0, 2.0, 3.0]]]), axis_start=0.0, axis_step=0.5)
    path = tmp_path / "entry.csv"
    export_csv(ds, 0, 0, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "axis_value,real,imag,magnitude,phase"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[3]) == 1.0  # magnitude of 1+0j
    assert float(first[4]) == 0.0  # phase of a positive real value


def test_export_csv_magnitude_column(tmp_path):
    ds = make_ds(np.array([[[3 + 4j, -5j]]]))
    path = tmp_path / "entry.csv"
    export_csv(ds, 0, 0, path)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    assert float(rows[0][3]) == pytest.approx(5.0)
    assert float(rows[1][3]) == pytest.approx(5.0)


def test_export_csv_golden_text(tmp_path):
    # the whole file, byte for byte: header, repr floats, "\n" line ends
    ds = make_ds(np.array([[[3 + 4j, -2 + 0j, -5j]]]), axis_start=0.0, axis_step=0.5)
    path = tmp_path / "entry.csv"
    export_csv(ds, 0, 0, path)
    assert path.read_bytes() == (b"axis_value,real,imag,magnitude,phase\n"
                                 b"0.0,3.0,4.0,5.0,0.9272952180016122\n"
                                 b"0.5,-2.0,0.0,2.0,3.141592653589793\n"
                                 b"1.0,-0.0,-5.0,5.0,-1.5707963267948966\n")


def test_export_csv_index_error(tmp_path):
    ds = make_ds(np.ones((2, 2, 3)))
    with pytest.raises(IndexError):
        export_csv(ds, 2, 0, tmp_path / "x.csv")


def test_export_all_csv(tmp_path):
    ds = make_ds(np.ones((2, 3, 3)))
    paths = export_all_csv(ds, tmp_path / "out")
    assert len(paths) == 6
    assert all(p.exists() for p in paths)
