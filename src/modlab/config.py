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
# (``rings.accepted_tables``), in table cells.  It holds scanned raw tables,
# the unscanned tables of derived modules, and remembered constructions
# (``rings.derived_tables``); every entry counts the cells of its own two
# tables, and a construction's are those of the table entry it returned.
# A cell is an 8-byte row pointer while entries stay below 257 (CPython
# shares those int objects), so the bound is about 8 MB; above that the
# table builders make a 28-byte int per entry, about 36 MB.  Constructions
# return tables that other entries hold as well, so the tables held are
# often fewer than the count.
MAX_ACCEPTED_CELLS = 1 << 20
