"""The seeded generator: deterministic bytes and an independent spectrum check."""
import numpy as np
import pytest

from perfbench import gen


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(tmp_path, workload):
    gen.write_inputs(workload, 7, tmp_path / "a")
    gen.write_inputs(workload, 7, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "manifest.json" in names and len(names) >= 3
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_the_inputs(tmp_path):
    gen.write_inputs("spectra_sweep", 1, tmp_path / "a")
    gen.write_inputs("spectra_sweep", 2, tmp_path / "b")
    name = "d8_s0_central.json"
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


def test_random_system_roots_sit_on_the_frequency_grid():
    system = gen.random_system(np.random.default_rng(3), 8)
    roots = gen.check_well_posed(system)
    assert np.allclose(np.sort(np.abs(roots.imag))[::2], np.linspace(0.5, 2.0, 8))
    assert np.abs(roots.real).max() < 1e-8


def test_check_rejects_singular_leading_block():
    system = gen.random_system(np.random.default_rng(3), 2)
    system["J1"] = (2.0 * np.asarray(system["J3"])).tolist()  # A = J1 - 2 J3 = 0
    with pytest.raises(gen.IllPosed):
        gen.check_well_posed(system)


def test_check_rejects_multiple_root():
    eye = np.eye(2).tolist()
    system = {"d": 2, "J1": eye, "J2": (-np.eye(2)).tolist(),
              "J3": np.zeros((2, 2)).tolist(), "J4": np.zeros((2, 2)).tolist()}
    with pytest.raises(gen.IllPosed):
        gen.check_well_posed(system)
