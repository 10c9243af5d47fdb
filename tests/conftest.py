"""Shared fixtures and the acceptance-criterion report hook."""

import ast
import io
import os
import pathlib
import tokenize

# BLAS pinned to one thread before numpy is first imported, so that
# ``bihm.estimators._CPUS`` reads every CPU this process may use and the
# suite runs the two-lane block paths on any machine with two or more.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from bihm import estimators
from bihm.training import TrainConfig, init_model, train

# Lines recorded by the acceptance tests, echoed in the terminal summary so
# every criterion gets one visible pass/fail line regardless of capture mode.
ACCEPTANCE_LINES = []


def record_criterion(number, status, detail):
    line = f"CRITERION {number} {status}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def code_lines(source):
    """Non-blank lines of ``source`` holding a token other than a comment.

    Module, class and function docstrings are left out.
    """
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, kinds) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout and tok.type != tokenize.ENDMARKER:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def pytest_terminal_summary(terminalreporter):
    package = pathlib.Path(estimators.__file__).parent
    total = sum(code_lines(path.read_text()) for path in package.glob("*.py"))
    terminalreporter.write_line(f"bihm.estimators._CPUS = {estimators._CPUS}")
    terminalreporter.write_line(f"src/bihm code lines = {total}")
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def bars_rows(n, rng):
    """Toy 4x4 bar patterns: one full row or column per image, flattened."""
    out = np.zeros((n, 16))
    for i in range(n):
        idx = rng.integers(4)
        grid = np.zeros((4, 4))
        if rng.random() < 0.5:
            grid[idx, :] = 1.0
        else:
            grid[:, idx] = 1.0
        out[i] = grid.ravel()
    return out


def adult_data_dir():
    """Directory holding adult_{train,valid,test}.amat, or None."""
    here = os.path.dirname(__file__)
    candidates = []
    env = os.environ.get("BIHM_DATA_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(here, "data"))
    candidates.append(os.path.join(os.path.dirname(here), "data"))
    for d in candidates:
        if all(
            os.path.exists(os.path.join(d, f"adult_{part}.amat"))
            for part in ("train", "valid", "test")
        ):
            return d
    return None


@pytest.fixture(scope="session")
def bars_training_run():
    """(model, history, data) from a short training run on the bar patterns.

    Session-scoped: several tests need a model that has learned real
    structure (so its posterior is far from uniform), plus the metrics
    history of getting there; one shared run is the cheapest way.
    """
    data = bars_rows(400, np.random.default_rng(11))
    valid = bars_rows(100, np.random.default_rng(12))
    model = init_model((16, 8, 4), seed=11)
    config = TrainConfig(k_train=10, learning_rate=1e-2, batch_size=100, epochs=200, seed=11)
    model, history = train(model, data, config, valid=valid, z_outer=200)
    return model, history, data


@pytest.fixture(scope="session")
def trained_bars_model(bars_training_run):
    return bars_training_run[0]
