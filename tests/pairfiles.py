"""Read and write one pair or group table per file, for tests.

Each helper is framekit.io's dict form of the object, saved with io.save
or read back with io.load; the CLI calls those two directly.  The CLI
reads group documents but never writes one, so the dict form of a group
table lives here.
"""

from framekit import io
from framekit.numerics import Tolerance


def write_frame_pair(path, fp):
    io.save(path, io.frame_pair_to_dict(fp))


def read_frame_pair(path, tol=Tolerance()):
    return io.frame_pair_from_dict(io.load(path), tol)


def write_ovf_pair(path, op):
    io.save(path, io.ovf_pair_to_dict(op))


def read_ovf_pair(path, tol=Tolerance()):
    return io.ovf_pair_from_dict(io.load(path), tol)


def write_pframe_pair(path, pf):
    io.save(path, io.pframe_pair_to_dict(pf))


def read_pframe_pair(path, tol=Tolerance()):
    return io.pframe_pair_from_dict(io.load(path), tol)


def group_table_to_dict(g) -> dict:
    return {
        "order": g.order,
        "identity": g.identity,
        "mul": [[int(v) for v in row] for row in g.mul],
    }


def write_group_table(path, g):
    io.save(path, group_table_to_dict(g))


def read_group_table(path):
    return io.group_table_from_dict(io.load(path))
