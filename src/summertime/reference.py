"""Published reference results from the original 184-participant study.

The wrist-accelerometer dataset behind these numbers is not distributable,
so desk-scale runs cannot reproduce them.  They ship as read-only fixtures
and render in evaluation reports as a comparison panel; nothing in this
package asserts against them.

Class order everywhere: Sed, LHH, MtV, Walk, Run (ascending intensity).
Matrices are row = actual, column = predicted.  Recall matrices are in
percent; RMSE is in MET units with a trailing pooled-overall column.
"""

from __future__ import annotations

REFERENCE_LABELS = ("Sed", "LHH", "MtV", "Walk", "Run")

# 12-second windows per category in the original dataset.
REFERENCE_WINDOW_COUNTS = {
    "Sed": 16475,
    "LHH": 2505,
    "MtV": 1570,
    "Walk": 3775,
    "Run": 485,
}

# Cluster-summary classifier: confusion counts and row-percentage form.
REFERENCE_CONFUSION_COUNTS = (
    (16455, 20, 0, 0, 0),
    (90, 2085, 310, 20, 0),
    (20, 240, 1290, 20, 0),
    (25, 0, 25, 3685, 40),
    (0, 0, 0, 135, 350),
)

REFERENCE_RECALL_MATRIX = (
    (99.88, 0.12, 0.00, 0.00, 0.00),
    (3.59, 83.23, 12.38, 0.80, 0.00),
    (1.27, 15.29, 82.17, 1.27, 0.00),
    (0.66, 0.00, 0.66, 97.62, 1.06),
    (0.00, 0.00, 0.00, 27.84, 72.16),
)

# Per-window network classifier with majority voting, percentage form.  Its
# Run recall of 8.25 against 72.16 above is the headline classification gap.
REFERENCE_VOTING_RECALL_MATRIX = (
    (99.64, 0.36, 0.00, 0.00, 0.00),
    (0.00, 87.82, 6.59, 3.99, 1.60),
    (0.00, 68.15, 31.85, 0.00, 0.00),
    (0.66, 4.24, 0.00, 85.56, 9.54),
    (0.00, 16.49, 0.00, 75.26, 8.25),
)

# MET RMSE per class plus overall, keyed by this package's method names.
REFERENCE_RMSE = {
    "linreg_local": (2.0105, 2.7549, 3.3990, 2.6670, 4.1593, 2.3690),
    "fivereg_ann": (0.1787, 1.2631, 1.6737, 1.3500, 1.7201, 0.8346),
    "ann_regression": (0.3999, 2.2715, 2.7789, 2.1308, 3.6695, 1.4402),
    "summertime": (0.1741, 1.0406, 1.4231, 1.2268, 1.2693, 0.7206),
}


def _diagonal(matrix: tuple[tuple[float, ...], ...]) -> list[float]:
    return [row[i] for i, row in enumerate(matrix)]


def reference_panel() -> dict:
    """JSON-ready copy of every fixture, as embedded in evaluation reports."""
    return {
        "source": "published results on the original 184-participant dataset",
        "labels": list(REFERENCE_LABELS),
        "window_counts": dict(REFERENCE_WINDOW_COUNTS),
        "confusion_counts": [list(row) for row in REFERENCE_CONFUSION_COUNTS],
        "recall_matrix_percent": [list(row) for row in REFERENCE_RECALL_MATRIX],
        "recall_diagonal_percent": _diagonal(REFERENCE_RECALL_MATRIX),
        "voting_recall_matrix_percent": [
            list(row) for row in REFERENCE_VOTING_RECALL_MATRIX
        ],
        "voting_recall_diagonal_percent": _diagonal(REFERENCE_VOTING_RECALL_MATRIX),
        "rmse_met": {
            method: {
                "per_class": list(values[:-1]),
                "overall": values[-1],
            }
            for method, values in REFERENCE_RMSE.items()
        },
    }
