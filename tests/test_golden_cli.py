"""Byte-for-byte CLI transcripts on small seeded inputs.

Every subcommand runs in-process on inputs built here from a fixed seed,
planted non-frames and domain errors included; the stdout and exit code of
each run must match tests/golden/cli.txt exactly.  Inputs use plain
arithmetic on rounded draws (no decompositions).  Printed results carry 12
significant digits, and a few (the circular residual) are pure round-off,
so a numpy or LAPACK build with different round-off may need the
transcripts regenerated and the difference inspected.

Regenerate the transcripts (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden/cli.txt
"""

import contextlib
import io as stdio
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import framekit.io as fio
from framekit import FramePair, GroupTable, OvfPair, PFramePair
from framekit.cli import run

import pairfiles

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"


def _rounded(rng, shape):
    return np.round(rng.standard_normal(shape), 2)


def _blocks(theta, d):
    return tuple(theta[j * d:(j + 1) * d] for j in range(theta.shape[0] // d))


def write_inputs(rng):
    """Write every input file into the current directory."""
    save = fio.save

    X = _rounded(rng, (3, 7))
    B = _rounded(rng, (7, 7))
    T = X @ (0.1 * B @ B.T + np.eye(7))  # S = X G X^T with G symmetric positive definite
    save("frame.json", fio.frame_pair_to_dict(FramePair(X, T, "real")))

    Xs = np.vstack([_rounded(rng, (2, 6)), np.zeros((1, 6))])
    save("singular.json", fio.frame_pair_to_dict(FramePair(Xs, Xs, "real")))

    A = np.array([[1.0, 0.5, 0.0], [-0.3, 1.0, 0.2], [0.0, 0.4, 1.0]])
    save("nonhermitian.json", fio.frame_pair_to_dict(FramePair(X, A @ X, "real")))

    Q = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    save("onb.json", fio.frame_pair_to_dict(FramePair(Q, Q, "real")))

    Xw = _rounded(rng, (3, 8))
    w = np.round(rng.uniform(0.5, 2.0, 8), 2)
    save("span.json", fio.frame_pair_to_dict(FramePair(Xw, Xw * w, "real")))
    Xp = np.hstack([_rounded(rng, (3, 3)), np.vstack([_rounded(rng, (2, 5)), np.zeros((1, 5))])])
    wp = np.concatenate([np.zeros(3), np.round(rng.uniform(0.5, 2.0, 5), 2)])
    save("span_planted.json", fio.frame_pair_to_dict(FramePair(Xp, Xp * wp, "real")))

    angles = 2.0 * np.pi * np.arange(3) / 3.0
    mb = np.vstack([np.cos(angles), np.sin(angles)])
    save("mb.json", fio.frame_pair_to_dict(FramePair(mb, mb, "real")))
    save("mb_scaled.json", fio.frame_pair_to_dict(FramePair(1.01 * mb, mb, "real")))

    Xd = _rounded(rng, (3, 7))
    save("self_dual.json", fio.frame_pair_to_dict(FramePair(Xd, Xd, "real")))
    eps = np.round(rng.uniform(-0.01, 0.01, 7), 4)
    save("perturbed.json", fio.frame_pair_to_dict(FramePair(Xd * (1 + eps), Xd, "real")))
    save("halved.json", fio.frame_pair_to_dict(FramePair(0.5 * Xd, Xd, "real")))

    R = _rounded(rng, (2, 5))
    Xc = (1.0 + 0.5j) * R  # Im(x) Re(x)^T = Re(x) Im(x)^T, so the real split applies
    save("complex.json", fio.frame_pair_to_dict(FramePair(Xc, Xc, "complex")))

    Xo = _rounded(rng, (4, 6))
    save("ovf.json", fio.ovf_pair_to_dict(OvfPair(_blocks(Xo.T, 2), _blocks(Xo.T, 2), "real")))
    H = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
    save("ovf_orthonormal.json", fio.ovf_pair_to_dict(OvfPair(_blocks(H, 2), _blocks(H, 2), "real")))
    Xz = np.vstack([_rounded(rng, (3, 6)), np.zeros((1, 6))])
    save("ovf_singular.json", fio.ovf_pair_to_dict(OvfPair(_blocks(Xz.T, 2), _blocks(Xz.T, 2), "real")))
    save("ovf_rank_one.json", fio.ovf_pair_to_dict(OvfPair(_blocks(X.T, 1), _blocks(T.T, 1), "real")))

    Xf = _rounded(rng, (3, 5))
    save("pframe.json", fio.pframe_pair_to_dict(PFramePair(Xf.T, Xf + 0.1 * _rounded(rng, (3, 5)), 3.0, "real")))
    save("pframe_tight.json", fio.pframe_pair_to_dict(PFramePair(H[:3].T, 2.5 * H[:3], 3.0, "real")))
    P = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
    E = np.round(rng.uniform(-0.02, 0.02, (4, 4)), 3)
    save("pw_base.json", fio.pframe_pair_to_dict(PFramePair(P.T, P, 3.0, "real")))
    save("pw_perturbed.json", fio.pframe_pair_to_dict(PFramePair(P.T, P - E, 3.0, "real")))
    save("pw_planted.json", fio.pframe_pair_to_dict(PFramePair(P.T, -0.2 * P, 3.0, "real")))

    save("z6.json", pairfiles.group_table_to_dict(GroupTable.cyclic(6)))

    bad = fio.frame_pair_to_dict(FramePair(X, T, "real"))
    bad["count"] = 8
    save("bad_count.json", bad)


CASES = [
    "construct circular --k 3 --l 3 -o nine.json",
    "verify frame.json",
    "verify singular.json",
    "verify nonhermitian.json",
    "verify onb.json",
    "verify nine.json",
    "verify bad_count.json",
    "dual frame.json -o dual.json",
    "dual singular.json",
    "classify frame.json",
    "classify onb.json",
    "construct group --table z6.json --x 1,0.5,0,0,0,0 --tau 1,0.5,0,0,0,0",
    "construct group --table z6.json --x 1,1,1,1,1,1 --tau 1,1,1,1,1,1",
    "construct group --table z6.json --x 1,0,0,0,0,0 --tau 0.5,0.25,0,0,0,0.25",
    "analyze reconstruct frame.json --target 1,-0.5,2 --steps 5",
    "analyze extend frame.json --lambda 100",
    "analyze extend self_dual.json --minimal",
    "analyze span span.json",
    "analyze span span_planted.json",
    "analyze span frame.json",
    "analyze formulas nine.json",
    "analyze formulas frame.json",
    "analyze perturb self_dual.json --perturbed perturbed.json --kind quadratic",
    "analyze perturb mb.json --perturbed mb_scaled.json --kind quadratic",
    "analyze perturb self_dual.json --perturbed perturbed.json --kind normsum",
    "analyze perturb self_dual.json --perturbed perturbed.json --kind sampled-linear"
    " --alpha 0.1 --beta 0.1 --gamma 0.2",
    "analyze perturb self_dual.json --perturbed halved.json --kind sampled-linear"
    " --gamma 0.05 --samples 200 --seed 3",
    "analyze perturb self_dual.json --perturbed perturbed.json --kind sampled-bessel"
    " --alpha 0.2 --beta 0.1",
    "analyze perturb self_dual.json --perturbed halved.json --kind sampled-bessel"
    " --alpha 0.1 --beta 0.1 --samples 300 --seed 5",
    "analyze convert frame.json --to-complex",
    "analyze convert complex.json --to-real -o real.json",
    "verify real.json",
    "ovf verify ovf.json",
    "ovf verify ovf_orthonormal.json",
    "ovf verify ovf_singular.json",
    "ovf verify ovf_rank_one.json",
    "ovf dual ovf.json -o ovf_dual.json",
    "ovf verify ovf_dual.json",
    "ovf dual ovf_singular.json",
    "ovf bridge frame.json -o bridged.json",
    "ovf bridge bridged.json -o unbridged.json",
    "verify unbridged.json",
    "pframe verify pframe.json",
    "pframe verify pframe.json --samples 50 --seed 4",
    "pframe verify pframe_tight.json",
    "pframe dual pframe.json -o pframe_dual.json",
    "pframe paley-wiener pw_base.json pw_perturbed.json",
    "pframe paley-wiener pw_base.json pw_planted.json",
    "pframe fourlaws --x 1,2,-1 --y 0.5,0,3",
]


def transcripts() -> str:
    """Run every case in a fresh directory and return the joined transcript."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs(np.random.default_rng(20261017))
            out = []
            for case in CASES:
                buf = stdio.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run(case.split())
                out.append(f"$ framekit {case}\n{buf.getvalue()}exit = {code}\n")
        finally:
            os.chdir(old)
    return "\n".join(out)


def test_cli_transcripts_match_golden():
    assert transcripts() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcripts())
