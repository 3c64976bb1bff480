"""Experiment F4 — Figure 4: transposing a matrix with Rule 5.

Reproduces the paper's 3x2 example exactly, then sweeps matrix size.
numpy's transpose serves as the sanity baseline: YATL's declarative
index-edge transpose is of course slower than a memcpy-style transpose,
but must scale in O(cells · log) and stay an involution.
"""

import numpy
import pytest

from repro.core import atom, tree
from repro.library import matrix_transpose_program
from repro.workloads import sales_matrix


def test_fig4_exact_example():
    matrix = tree(
        "matrix",
        tree(1995, tree("golf", atom(10)), tree("polo", atom(20)),
             tree("passat", atom(30))),
        tree(1996, tree("golf", atom(11)), tree("polo", atom(21)),
             tree("passat", atom(31))),
    )
    result = matrix_transpose_program().run([matrix])
    assert result.trees_of("New")[0] == tree(
        "matrix",
        tree("golf", tree(1995, atom(10)), tree(1996, atom(11))),
        tree("polo", tree(1995, atom(20)), tree(1996, atom(21))),
        tree("passat", tree(1995, atom(30)), tree(1996, atom(31))),
    )


@pytest.mark.parametrize("rows,cols", [(3, 2), (10, 10), (40, 25)])
def test_fig4_yatl_transpose(benchmark, rows, cols):
    program = matrix_transpose_program()
    matrix = sales_matrix(rows, cols)
    result = benchmark(program.run, [matrix])
    transposed = result.trees_of("New")[0]
    assert len(transposed.children) == rows
    assert all(len(row.children) == cols for row in transposed.children)


@pytest.mark.parametrize("rows,cols", [(10, 10), (40, 25)])
def test_fig4_numpy_baseline(benchmark, rows, cols):
    """Reference point: the same transpose as a dense array operation."""
    array = numpy.arange(rows * cols).reshape(rows, cols)
    result = benchmark(lambda: numpy.ascontiguousarray(array.T))
    assert result.shape == (cols, rows)


def test_fig4_involution():
    program = matrix_transpose_program()
    matrix = sales_matrix(7, 5)
    once = program.run([matrix]).trees_of("New")[0]
    twice = program.run([once]).trees_of("New")[0]
    assert twice == matrix
