"""Round-trip and determinism tests for serialization."""

import numpy as np
import pytest

from kmaxwell import io, mesh

RNG_SEED = 90221


def sample_grid():
    return mesh.GridSpec(
        n=3, cells_per_axis=(4, 5), lengths=(1.0, 0.75), dt=0.0125, t0=0.5,
        periodic=(False, True),
    )


def sample_cochain():
    rng = np.random.default_rng(RNG_SEED)
    return mesh.random_cochain(sample_grid(), 1, True, rng)


class TestCochainBinary:
    def test_roundtrip_exact(self, tmp_path):
        c = sample_cochain()
        jp, bp = io.write_cochain_binary(tmp_path / "snap", c, time=2.0)
        assert jp.name == "snap.json" and bp.name == "snap.bin"
        back, t = io.read_cochain_binary(tmp_path / "snap")
        assert t == 2.0
        assert back.grid == c.grid
        for s in c.comps:
            np.testing.assert_array_equal(back.comps[s], c.comps[s])

    def test_payload_is_little_endian_float64(self, tmp_path):
        c = sample_cochain()
        io.write_cochain_binary(tmp_path / "snap", c, time=0.0)
        raw = (tmp_path / "snap.bin").read_bytes()
        np.testing.assert_array_equal(np.frombuffer(raw, dtype="<f8"), c.vec)

    def test_format_tag_checked(self, tmp_path):
        c = sample_cochain()
        io.write_cochain_binary(tmp_path / "snap", c, time=0.0)
        header = (tmp_path / "snap.json").read_text().replace(io.FORMAT_TAG, "bogus")
        (tmp_path / "snap.json").write_text(header)
        with pytest.raises(ValueError, match="format"):
            io.read_cochain_binary(tmp_path / "snap")

    def test_length_mismatch_detected(self, tmp_path):
        c = sample_cochain()
        io.write_cochain_binary(tmp_path / "snap", c, time=0.0)
        raw = (tmp_path / "snap.bin").read_bytes()
        (tmp_path / "snap.bin").write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="length"):
            io.read_cochain_binary(tmp_path / "snap")


class TestMonitorCsv:
    def sample_series(self):
        t = np.linspace(0.0, 1.0, 5)
        return {
            "time": t,
            "rE": 1e-14 * np.arange(5.0),
            "rB": 1e-13 * np.arange(5.0),
            "rbdy": np.zeros(5),
            "energy": 1.0 + 1e-9 * t,
            "cone_leak": np.full(5, 2.5e-9),
        }

    def test_roundtrip(self, tmp_path):
        series = self.sample_series()
        path = tmp_path / "series_monitor.csv"
        io.write_monitor_csv(path, series)
        back = io.read_monitor_csv(path)
        assert tuple(back) == io.MONITOR_COLUMNS
        for name in series:
            np.testing.assert_array_equal(back[name], np.asarray(series[name], dtype=float))

    def test_header_line(self, tmp_path):
        path = tmp_path / "series_monitor.csv"
        io.write_monitor_csv(path, self.sample_series())
        assert path.read_text().splitlines()[0] == "time,rE,rB,rbdy,energy,cone_leak"

    def test_rejects_wrong_columns(self, tmp_path):
        series = self.sample_series()
        series.pop("cone_leak")
        with pytest.raises(ValueError, match="columns"):
            io.write_monitor_csv(tmp_path / "bad.csv", series)

    def test_read_rejects_wrong_columns(self, tmp_path):
        series = self.sample_series()
        series.pop("cone_leak")
        io.write_table_csv(tmp_path / "bad.csv", series)
        with pytest.raises(ValueError, match=r"monitor series must have columns \('time',"):
            io.read_monitor_csv(tmp_path / "bad.csv")


class TestTableCsv:
    def test_roundtrip_and_order(self, tmp_path):
        cols = {"h": np.array([0.5, 0.25]), "defect": np.array([1e-3, 2.6e-4])}
        path = tmp_path / "table.csv"
        io.write_table_csv(path, cols)
        assert path.read_text().splitlines()[0] == "h,defect"
        back = io.read_table_csv(path)
        np.testing.assert_array_equal(back["defect"], cols["defect"])

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            io.write_table_csv(tmp_path / "bad.csv", {"a": [1.0], "b": [1.0, 2.0]})
