"""Default size caps for exhaustive computations.

Everything in this package is decided by brute force over explicit tables,
so object sizes are capped.  The defaults are desk scale; raise them per
call (every constructor takes a ``cap`` argument) or via the CLI flags.
"""

DEFAULT_RING_CAP = 16
DEFAULT_MODULE_CAP = 64
DEFAULT_UNIVERSE_DEPTH = 2

# Guard for listing a whole Hom-set (``modules.hom_set``): the number of
# maps, |Hom|, known from the generator chain before any map is listed.
MAX_HOM_MAPS = 4_000_000

# Guard for the chain behind Hom generators: w^2 |T|, where w = m + k is
# the chain's width (m basis relations, k generators).  The chain stores
# at most w |T| vectors of length w.
MAX_HOM_CHAIN = 4_000_000

# Bound of the process-wide memo of accepted ring and module tables
# (``rings.accepted_tables``), in cells.  It holds scanned raw tables, the
# unscanned tables of derived modules, remembered constructions
# (``rings.derived``) and the facts read off tables, all as ints.  Each
# distinct table counts its cells once, however many entries hold it, and
# every other int counts once per entry (``rings._store``).  A cell is an
# 8-byte pointer in a tuple, plus its share of the tuple's header, plus a
# 28-byte int object when the value exceeds 256 (CPython shares the ints
# up to 256), so about 8 to 36 MB at the bound, more when masks of large
# modules, one cell each, are many.  Measured at the bound: 10.4 MB after
# ``modlab corpus --universe-depth 4 --cap-module 256`` (10 bytes a cell)
# and 17.1 MB at depth 5 and cap 512 (20 bytes a cell), facts being 7-9%
# of the cells.
MAX_ACCEPTED_CELLS = 1 << 20
