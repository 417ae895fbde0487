import sys

import numpy as np
import pytest

import fhalloc.sysmodel as sysmodel


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance checklist collected by test_acceptance, if it ran.

    The module is looked up in sys.modules rather than imported so the
    lines come from the instance the test run actually populated.
    """
    lines = []
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "CHECKLIST", []):
            lines = mod.CHECKLIST
            break
    if not lines:
        return
    terminalreporter.section("acceptance checklist")
    for line in lines:
        terminalreporter.write_line(line)


def reduce_trial_draws(cfg, seed, ids, domain):
    """sysmodel._draw_stats written as the reduction of trial_draws: (S, nu), S of shape (n, 3K, 4K).

    S[:, :, l K:(l + 1) K] holds Z_j^T Z_l^* for l < 3 and Z_j^T Z_3 for
    l = 3, row block j, and nu the squared column norms of Z_3, of the
    M x K unit draws that the M-space references read.
    """
    z = sysmodel.trial_draws(cfg, seed, ids, domain)
    # [Z_0 Z_1 Z_2 Z_3] side by side, one M x 4K matrix per trial
    Z = z.transpose(0, 2, 1, 3).reshape(len(z), cfg.M, 4 * cfg.K)
    K3 = 3 * cfg.K
    S = Z[..., :K3].swapaxes(-2, -1) @ np.concatenate([Z[..., :K3].conj(), Z[..., K3:]], axis=-1)
    return S, np.sum(np.abs(z[:, 3]) ** 2, axis=-2)


@pytest.fixture
def m_space_reduction():
    """reduce_trial_draws, the M x K reference for the law of sysmodel._draw_stats."""
    return reduce_trial_draws


@pytest.fixture
def m_space_stats(monkeypatch, m_space_reduction):
    """Draw the slot statistics by reducing trial_draws, so K x K results can be checked against M x K references.

    Only the draw step under sysmodel._trial_stats is replaced: its memo,
    layout and block keys stay under test.  The memo, and the memo of the
    estimate pieces derived from its statistics, start empty and are
    restored afterwards, so no reduced statistics reach later tests.
    """
    monkeypatch.setattr(sysmodel, "_stats_cache", {})
    monkeypatch.setattr(sysmodel, "_pieces_cache", {})
    monkeypatch.setattr(sysmodel, "_draw_stats", m_space_reduction)
