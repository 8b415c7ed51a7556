"""Per-op correctness rules on hand-written program outputs."""
import math

from perfbench import classify

M = 200
SENTINEL = format(-math.log(3.0 * M), ".17g")


def test_gamma_sentinel_cell_fails():
    text = f"gamma_m1_re,gamma_1_re,metric\n-1,-1,{SENTINEL}\n-1,0,3.25\n0,0,nan\n"
    assert classify.gamma_cells(text, M) == [False, True, False]


def test_gamma_status_column_decides_alone():
    text = ("gamma_m1_re,gamma_1_re,metric,status\n"
            f"-1,-1,{SENTINEL},ok\n-1,0,3.25,KernelFailure\n")
    assert classify.gamma_cells(text, M) == [True, False]


def test_sweep_precision_floor_fails_the_cell():
    text = ("epsilon,hausdorff,pencil_error,note\n"
            "0.0001,5e-3,1e-9,\n"      # larger than at 0.001: past the floor
            "0.001,1e-5,1e-7,\n"
            "0.01,1e-4,1e-5,\n"
            "0.1,1e-2,1e-3,\n")
    assert classify.sweep_cells(text) == [False, True, True, True]


def test_sweep_note_or_nan_fails_and_failed_neighbour_is_no_floor():
    text = ("epsilon,hausdorff,pencil_error,note\n"
            "0.1,nan,nan,spectrum failure: root residual 3e-06, tol 1e-08\n"
            "0.01,1e-4,1e-5,\n"
            "0.05,2e-3,1e-5,no roots inside the compact window\n")
    assert classify.sweep_cells(text) == [False, True, False]


def test_order_gap_scores_missing_fit_as_full_order():
    assert classify.fitted_order("estimated order: nan\nwrote x\n") is None
    assert classify.fitted_order("estimated order: 1.0700\n") == 1.07
    assert classify.order_gap(None, 4) == 4.0
    assert math.isclose(classify.order_gap(1.07, 2), 0.93)
    assert classify.order_gap(2.0001, 2) == classify.ORDER_FLOOR


def test_grid_node_needs_all_three_checks():
    ok = classify.grid_nodes([0.0, 2e-6, 0.0, 0.0], [1e-12, 1e-12, 1e-9, 1e-12],
                             [True, True, True, False])
    assert ok == [True, False, False, False]
