"""Per-item references for the package's vector paths.

The package keeps one implementation of each hash, of occurrence
numbering and of SALSA's growth: the vector one. The tests check it
against these forms, written one item at a time from the definitions:

- the hash chain ``mix64(mix64(item) ^ seed)``, under the seed of a
  (kind, row), and each kind's reduction of it
- SALSA's update of one arrival, which grows its counter until the new
  value fits
- the streaming occurrence rule, and the exact and count-min expansions
  built on it
- the multiset sum and difference
"""

from collections import Counter

from sketchsim.baselines import OccurrenceItem
from sketchsim.core import RowSaturatedError, integer_id
from sketchsim.hashing import HashFamily, HashKind, mix64
from sketchsim.oracle import ExactMultiset
from sketchsim.salsa import _C_CAPS, _CM_CAPS

# -- the hash chain ----------------------------------------------------


def mixed(fam, item, kind, row):
    """``item``'s full 64-bit hash under ``fam``'s seed of (``kind``, ``row``)."""
    return mix64(mix64(integer_id(item)) ^ fam.row_seed(kind, row))


def index_hash(fam, item, row, width):
    return mixed(fam, item, HashKind.INDEX, row) % width


def sign_hash(fam, item, row):
    return 1 if mixed(fam, item, HashKind.SIGN, row) >> 63 else -1


def unit_hash(fam, item, row):
    return ((mixed(fam, item, HashKind.UNIT, row) >> 12) + 0.5) * 2.0**-52


def unit_rank(fam, item, row):
    """``floor(-log2(unit_hash))`` in integer arithmetic."""
    r = mixed(fam, item, HashKind.UNIT, row) >> 12
    return 53 if r == 0 else 52 - r.bit_length()


def bit_hash(fam, item, bits):
    return mixed(fam, item, HashKind.BIT, 0) >> (64 - bits)


# -- SALSA ---------------------------------------------------------------


def salsa_add(row, pos, d_cm, d_c):
    """Apply one update at byte ``pos`` of the ``SalsaRow`` ``row``; a
    counter whose value would leave its level's range coalesces its
    parent block, as often as needed."""
    g = int(row.level_of[pos])
    start = pos & ~((1 << g) - 1)
    while (
        int(row.cm[start]) + d_cm > _CM_CAPS[min(g, 3)]
        or abs(int(row.c[start]) + d_c) > _C_CAPS[min(g, 3)]
    ):
        if (1 << g) == row.width:
            raise RowSaturatedError(
                f"counter spans the whole {row.width}-byte row and cannot grow"
            )
        g += 1
        start &= ~((1 << g) - 1)
        row.coalesce(start, g)
    row.cm[start] += d_cm
    row.c[start] += d_c


# -- occurrence expansion ------------------------------------------------


def _expanded(stream, keys_of):
    """Count each arrival's keys, and tag it with their least running count."""
    counts = Counter()
    for item in map(integer_id, stream):
        keys = keys_of(item)
        counts.update(keys)
        yield OccurrenceItem(base=item, occurrence=min(counts[key] for key in keys))


def expand_exact(stream):
    """Tag each arrival with its exact running count: its one key is itself."""
    yield from _expanded(stream, lambda item: (item,))


def expand_cm(stream, cm_params):
    """Tag each arrival with its count-min count: one ``(row, bucket)`` key per row."""
    fam = HashFamily(cm_params.master_seed, cm_params.rows)
    rows, width = range(cm_params.rows), cm_params.width
    yield from _expanded(
        stream, lambda item: [(row, index_hash(fam, item, row, width)) for row in rows]
    )


# -- multiset algebra ----------------------------------------------------


def multiset_sum(a, b):
    """Pointwise multiplicity addition."""
    return ExactMultiset(Counter(dict(a.items())) + Counter(dict(b.items())))


def multiset_difference(a, b):
    """Pointwise subtraction clamped at zero."""
    return ExactMultiset(Counter(dict(a.items())) - Counter(dict(b.items())))
