"""Reference seconds from sampled host speed, and the fixed pass count."""
import time

import pytest

from perfbench import run, speed


def _filled(ends, durations) -> speed.Sampler:
    sampler = speed.Sampler()
    sampler.ends, sampler.durations = list(ends), list(durations)
    return sampler


def test_reference_seconds_scale_with_the_kernel_time():
    ends = [0.1 * i for i in range(1, 101)]
    quiet = _filled(ends, [speed.REF_KERNEL_S] * 100)
    slow = _filled(ends, [2 * speed.REF_KERNEL_S] * 100)
    assert quiet.reference_s(1.0, 5.0) == pytest.approx(4.0)
    assert slow.reference_s(1.0, 5.0) == pytest.approx(2.0)


def test_reference_seconds_average_the_speed_over_the_window():
    # half the window at full speed, half at a third: (1 + 1/3) / 2
    durations = [speed.REF_KERNEL_S] * 5 + [3 * speed.REF_KERNEL_S] * 5
    sampler = _filled([0.1 * i for i in range(1, 11)], durations)
    assert sampler.reference_s(0.0, 1.0) == pytest.approx(2.0 / 3.0)


def test_a_spike_weighs_no_more_than_its_sample():
    durations = [speed.REF_KERNEL_S] * 9 + [1.0]
    sampler = _filled([0.1 * i for i in range(1, 11)], durations)
    assert sampler.reference_s(0.0, 1.0) == pytest.approx(0.9, rel=1e-3)


def test_a_short_window_widens_to_the_nearest_samples():
    durations = [1e-3] * 5 + [2e-3] * 5
    sampler = _filled([float(i) for i in range(10)], durations)
    # no sample ends inside [4.2, 4.3]; the widened window takes the nearest
    assert sampler.window(4.2, 4.3) == [1e-3] * 3 + [2e-3] * 3
    assert sampler.window(0.0, 2.0) == [1e-3] * 5


def test_no_samples_is_an_error():
    with pytest.raises(RuntimeError):
        speed.Sampler().window(0.0, 1.0)


def test_sampler_samples_until_stopped():
    sampler = speed.Sampler(interval=0.005).start()
    time.sleep(0.1)
    sampler.stop()
    taken = len(sampler.durations)
    assert taken >= 3 and all(d > 0 for d in sampler.durations)
    time.sleep(0.03)
    assert len(sampler.durations) == taken


@pytest.mark.parametrize("workload", run.NOMINAL_PASS_S)
def test_pass_count_is_fixed_by_workload_and_seconds(workload):
    assert run.pass_count(workload, 24) == run.pass_count(workload, 24)
    assert run.pass_count(workload, 24) >= run.MIN_PASSES
    assert run.pass_count(workload, 1) == run.MIN_PASSES
    assert run.pass_count(workload, 600) > run.pass_count(workload, 24)
