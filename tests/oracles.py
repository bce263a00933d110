"""Reference scans shared by the tests: slow, direct, and independent of the
shortcuts the library takes.

The power-set, all-functions and subset-of-ideals oracles filter every
candidate.  The ring-level oracles find by search what the library reads
off the ring: linear filters among all subsets of the left ideals, simple
modules and universe modules grouped into isomorphism classes by
``find_isomorphism`` on pairs, and Baer's criterion with the maps R -> M
and I -> M listed by ``searched_hom_set``.  ``searched_hom_set`` is the
reference Hom-set: a search over all |T|^k generator-image tuples, which
reads the relation basis of the source but not the chain of
``hom_generators``, whose span ``hom_set`` lists.
The firstness oracles are the scans the deciders
ran before they were reduced to the atoms of
``modules.atoms``, to the submodules inside the socle, or to one member
per pair of tables: each walks every nonzero submodule of the full
lattice, in lattice order, and reports the first failure as its witness,
in the decider's own witness format.  The left-exactness oracle is the
scan that ran before left exactness was reduced to the cyclic submodules
of s(M).  The all-cyclic BJKN scans are the cogeneration route before it
was reduced to the atoms, and the pointwise-separation route over
searched Hom-sets, which the decider no longer runs: its witness is the
reference for the one the decider reads off rejects, with no
``hom_generators``.  The lub/glb oracle derives a bounded lattice's
tables by comparing every bound, as the lattice did before it read them
off up-sets, and the poset oracle checks an order over every triple, as
``FinitePoset`` did before it checked transitivity on up-set bitmasks.
The universe scans are the ones ``classify_ring`` ran before it read the
BKN and left-semiartinian flags off the ring: a Hom search on every
ordered pair of nonzero universe modules, and a socle on every one.
``closure_trad_mask`` forms I.N as ``trad_mask`` did before it summed the
subgroups iN: the set of products iu closed under addition pair by pair.
``membership_filter_mask`` evaluates a linear filter's operator as
``LinearFilter`` did before a filter was given by its least member: the
elements whose annihilator, read off the action table, is a member.
``loop_image`` and ``loop_preimage`` test every index of a row, one shift
each, as the loops did that ``modules._image`` and ``modules._preimage``
replace.
"""

import itertools

from modlab.errors import AxiomViolation, RingMismatch, SizeCapExceeded
from modlab.modules import (ModuleMorphism, _generator_data,
                            _morphism_from_images, _search_images,
                            annihilator_mask, cogenerates, cyclic_mask,
                            direct_sum_module, embed_submask,
                            enumerate_submodules, find_isomorphism,
                            hom_nonzero_exists, is_essential,
                            is_submodule_mask, quotient_module,
                            regular_module, structural_summary, submodule,
                            trad_mask)
from modlab.preradicals import Alpha, Join, SOC
from modlab.rings import enumerate_ideals


def powerset_submodule_masks(module):
    """All submodule carriers by filtering every subset."""
    if module.order > 16:
        raise SizeCapExceeded("power-set oracle limited to order <= 16")
    zero = module.zero
    hits = []
    for mask in range(1 << module.order):
        if mask >> zero & 1 and is_submodule_mask(module, mask):
            hits.append(mask)
    return sorted(hits)


def poset_violation(leq):
    """``(axiom, witness)`` of the first order axiom ``leq`` breaks in a
    scan over every triple (a, b, c), or None."""
    n = len(leq)
    for a in range(n):
        if not leq[a][a]:
            return "reflexivity", (a,)
        for b in range(n):
            if leq[a][b] and leq[b][a] and a != b:
                return "antisymmetry", (a, b)
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    return "transitivity", (a, b, c)
    return None


def lub_glb_lattice(leq):
    """``(join, meet, bottom, top)`` of the order ``leq`` by comparing every
    common bound of each pair.  A pair without a unique least upper or
    greatest lower bound raises ``AxiomViolation("lattice", (x, y))`` at
    the first such pair in row-major order; an order without bottom or top
    raises ``"boundedness"``."""
    n = len(leq)
    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            ubs = [z for z in range(n) if leq[x][z] and leq[y][z]]
            least = [z for z in ubs if all(leq[z][w] for w in ubs)]
            lbs = [z for z in range(n) if leq[z][x] and leq[z][y]]
            greatest = [z for z in lbs if all(leq[w][z] for w in lbs)]
            if len(least) != 1 or len(greatest) != 1:
                raise AxiomViolation("lattice", (x, y),
                                     "pair without lub or glb")
            join[x][y] = least[0]
            meet[x][y] = greatest[0]
    bottoms = [x for x in range(n) if all(leq[x])]
    tops = [x for x in range(n) if all(leq[y][x] for y in range(n))]
    if not bottoms or not tops:
        raise AxiomViolation("boundedness", None, "no bottom or top")
    return (tuple(map(tuple, join)), tuple(map(tuple, meet)), bottoms[0],
            tops[0])


def all_function_homs(source, target):
    """Hom-set by filtering every function (tiny sizes only)."""
    if target.order ** source.order > 300_000:
        raise SizeCapExceeded("all-functions oracle out of range")
    out = []
    for f in itertools.product(range(target.order), repeat=source.order):
        try:
            out.append(ModuleMorphism(source, target, f))
        except AxiomViolation:
            continue
    out.sort(key=lambda m: m.map)
    return tuple(out)


# bound of ``searched_hom_set``: |T|^k candidate image tuples for k
# generators into a target T
MAX_SEARCHED_TUPLES = 4_000_000


def searched_hom_set(source, target):
    """Hom(source, target) by a depth-first search over all |T|^k images of
    the k generators, keeping each tuple that kills every basis relation,
    ordered by ``map``.  Refused when |T|^k exceeds
    ``MAX_SEARCHED_TUPLES``."""
    if source.ring is not target.ring:
        raise RingMismatch("hom-set endpoints over different rings")
    gens, _, rel_levels = _generator_data(source)
    k = len(gens)
    if target.order ** k > MAX_SEARCHED_TUPLES:
        raise SizeCapExceeded(
            f"hom search over {target.order}^{k} candidates is out of range")
    images = []
    _search_images(target, rel_levels, [range(target.order)] * k,
                   images.append)
    return tuple(sorted((_morphism_from_images(source, target, hv)
                         for hv in images), key=lambda f: f.map))


def subset_linear_filters(ring):
    """The linear filters of left ideals, as frozensets of ideal masks, by
    testing every subset of the left ideals: it contains R, is upward
    closed, and is closed under intersections and under the shifts
    (I : a) = {r | r.a in I}.  Sorted by (size, sorted member masks)."""
    ideals = enumerate_ideals(ring, "left")
    n = len(ideals)
    if n > 16:
        raise SizeCapExceeded("subset-of-ideals oracle limited to 16 ideals")
    masks = [i.mask for i in ideals]
    index = {m: i for i, m in enumerate(masks)}
    supersets = [[j for j in range(n) if masks[i] & ~masks[j] == 0]
                 for i in range(n)]
    inters = [[index[masks[i] & masks[j]] for j in range(n)] for i in range(n)]
    mul = ring.mul
    shifts = []
    for i in range(n):
        row = []
        for a in range(ring.order):
            shift_mask = 0
            for r in range(ring.order):
                if masks[i] >> mul[r][a] & 1:
                    shift_mask |= 1 << r
            row.append(index[shift_mask])
        shifts.append(row)
    full_index = n - 1  # canonical order puts R last
    filters = []
    for bits in range(1 << n):
        if not bits >> full_index & 1:
            continue  # a filter always contains R
        members = [i for i in range(n) if bits >> i & 1]
        ok = True
        for i in members:
            if any(not bits >> j & 1 for j in supersets[i]):
                ok = False
                break
            if any(not bits >> inters[i][j] & 1 for j in members):
                ok = False
                break
            if any(not bits >> shifts[i][a] & 1 for a in range(ring.order)):
                ok = False
                break
        if ok:
            filters.append(frozenset(masks[i] for i in members))
    filters.sort(key=lambda f: (len(f), sorted(f)))
    return filters


def filter_members(pr):
    """The masks of the left ideals in the linear filter of the
    ``LinearFilter`` ``pr``: those that contain its two-sided ideal."""
    t = pr.ideal.mask
    return frozenset(i.mask for i in enumerate_ideals(pr.ring(), "left")
                     if t & ~i.mask == 0)


def membership_filter_mask(module, members):
    """The elements of ``module`` whose annihilator lies in ``members``."""
    act, zero = module.act, module.zero
    out = 0
    for x in range(module.order):
        ann = sum(1 << r for r, row in enumerate(act) if row[x] == zero)
        if ann in members:
            out |= 1 << x
    return out


def loop_image(row, mask):
    """{row[x] : x in mask}, testing every index of ``row``."""
    out = 0
    for x in range(len(row)):
        if mask >> x & 1:
            out |= 1 << row[x]
    return out


def loop_preimage(row, mask):
    """{x : row[x] in mask}, testing every index of ``row``."""
    out = 0
    for x in range(len(row)):
        if mask >> row[x] & 1:
            out |= 1 << x
    return out


def _pairwise_partition(mods):
    """Classes by pairwise ``find_isomorphism`` on every ordered pair, in
    order of first occurrence, members in input order."""
    mods = list(mods)
    n = len(mods)
    iso = [[find_isomorphism(a, b) is not None for b in mods] for a in mods]
    assert all(iso[i][j] == iso[j][i] for i in range(n) for j in range(n))
    classes = []
    placed = [False] * n
    for i in range(n):
        if not placed[i]:
            members = [j for j in range(i, n) if iso[i][j]]
            for j in members:
                placed[j] = True
            classes.append([mods[j] for j in members])
    return classes


def isomorphism_class_simples(ring):
    """One simple module per isomorphism class: the quotients by maximal
    left ideals, in ``maximal_indices`` order, grouped by
    ``_pairwise_partition``, first members sorted by order."""
    reg = regular_module(ring)
    lat = enumerate_submodules(reg)
    reps = [cls[0] for cls in _pairwise_partition(
        quotient_module(reg, lat.submodules[i])
        for i in lat.maximal_indices())]
    reps.sort(key=lambda m: m.order)
    return reps


def searched_universe(ring, depth, module_cap):
    """``classify.generate_universe`` by isomorphism search: every
    candidate is built, and a candidate is kept when ``find_isomorphism``
    maps no module kept before it onto it."""
    def first_occurrences(candidates):
        kept = []
        for m in candidates:
            if all(find_isomorphism(k, m) is None for k in kept):
                kept.append(m)
        return kept

    reg = regular_module(ring)
    mods = first_occurrences(
        [reg] + [quotient_module(reg, sub)
                 for sub in enumerate_submodules(reg).submodules])
    for _ in range(depth - 1):
        current = [m for m in mods if not m.is_zero()]
        grown = first_occurrences(
            mods + [direct_sum_module([a, b], cap=module_cap)
                    for i, a in enumerate(current) for b in current[i:]
                    if a.order * b.order <= module_cap])
        if len(grown) == len(mods):
            break
        mods = grown
    return mods


def baer_via_hom_set(module):
    """Baer's criterion with Hom(R, M) and every Hom(I, M) listed by
    ``searched_hom_set``: every map from a nonzero left ideal is the
    restriction of one of them."""
    ring = module.ring
    full_homs = searched_hom_set(regular_module(ring), module)
    for ideal in enumerate_ideals(ring, "left"):
        if ideal.is_zero():
            continue
        imod = ideal.as_module()
        carrier = imod.origin[2]
        restrictions = {tuple(g.map[e] for e in carrier) for g in full_homs}
        if any(f.map not in restrictions
               for f in searched_hom_set(imod, module)):
            return False
    return True


def _nonzero(module):
    return enumerate_submodules(module).nonzero()


def lattice_atoms(module):
    """The nonzero submodules that contain no nonzero submodule listed
    before them, in lattice order."""
    found = []
    for s in _nonzero(module):
        if all(a.mask & ~s.mask for a in found):
            found.append(s)
    return found


def all_submodules_cogenerate(module):
    """BJKN's cogeneration route over every nonzero submodule."""
    for n in _nonzero(module):
        if not cogenerates(n, module):
            return False, {"kind": "non_cogenerating_submodule",
                           "submodule": n.labels()}
    return True, None


def _distinct_cyclics(module):
    """(Ry, y) for each distinct nonzero cyclic submodule, y its least
    generator, in order of y."""
    by_mask = {}
    for y in range(module.order):
        if y != module.zero:
            by_mask.setdefault(cyclic_mask(module, y), y)
    return sorted(by_mask.items(), key=lambda kv: kv[1])


def all_cyclic_submodules_cogenerate(module):
    """BJKN's cogeneration route over every distinct cyclic submodule."""
    for mask, y in _distinct_cyclics(module):
        sub = submodule(module, mask)
        if not cogenerates(sub, module):
            return False, {"kind": "non_cogenerating_cyclic",
                           "generator": module.labels[y],
                           "submodule": sub.labels()}
    return True, None


def all_cyclic_pointwise_separation(module):
    """BJKN's pointwise route over every distinct cyclic Ry: for every
    nonzero x some map in the searched Hom(M, Ry) does not kill x."""
    zero = module.zero
    for mask, y in _distinct_cyclics(module):
        target = submodule(module, mask).as_module()
        separated = 0
        for f in searched_hom_set(module, target):
            for x in range(module.order):
                if f.map[x] != target.zero:
                    separated |= 1 << x
        for x in range(module.order):
            if x != zero and not separated >> x & 1:
                return False, {"kind": "inseparable_pair",
                               "x": module.labels[x],
                               "y": module.labels[y]}
    return True, None


def left_exact_all_submodules(pr, module):
    """s(N) = N & s(M) for every submodule N, each built as a module."""
    whole = pr.evaluate(module).mask
    for n in enumerate_submodules(module).submodules:
        nmod = n.as_module()
        if embed_submask(nmod, pr.evaluate(nmod).mask) != whole & n.mask:
            return False
    return True


def prime_via_annihilators(module):
    """Every nonzero submodule has the module's annihilator."""
    ann_m = annihilator_mask(module, module.full_mask())
    for n in _nonzero(module):
        if annihilator_mask(module, n.mask) != ann_m:
            return False, {"kind": "annihilator_jump", "submodule": n.labels()}
    return True, None


def prime_via_ideals(module):
    """No two-sided ideal kills a nonzero submodule but not the module."""
    zmask = module.zero_mask()
    for ideal in enumerate_ideals(module.ring, "two-sided"):
        if trad_mask(module, ideal) == zmask:
            continue
        for n in _nonzero(module):
            if trad_mask(module, ideal, n.mask) == zmask:
                return False, {"kind": "ideal_kills_submodule_not_module",
                               "ideal": list(ideal.labels()),
                               "submodule": n.labels()}
    return True, None


def a_fully_first(module, family):
    """No member of the family kills a nonzero submodule."""
    for pr in family:
        for n in _nonzero(module):
            if pr.evaluate(n.as_module()).is_zero():
                return False, {"kind": "member_kills_submodule",
                               "member": pr.describe(),
                               "submodule": n.labels()}
    return True, None


def retractable(module):
    """A nonzero map from the module into every nonzero submodule."""
    return all(hom_nonzero_exists(module, n.as_module())
               for n in _nonzero(module))


def rpid_pairwise(module):
    """Trace-firstness's pairwise route over every ordered pair of nonzero
    submodules, with the atoms each N reaches found by
    ``hom_nonzero_exists``: Hom(N, K) is nonzero as soon as Hom(N, A) is
    for an atom A <= K, and a direct search runs on the other K."""
    atoms = lattice_atoms(module)
    atom_masks = {a.mask for a in atoms}
    subs = _nonzero(module)
    for n in subs:
        nmod = n.as_module()
        reached = [a for a in atoms if hom_nonzero_exists(nmod, a.as_module())]
        for k in subs:
            nonzero = (any(a.mask & ~k.mask == 0 for a in reached)
                       or k.mask not in atom_masks
                       and hom_nonzero_exists(nmod, k.as_module()))
            if not nonzero:
                return False, {"kind": "hom_vanishes",
                               "source": n.labels(), "target": k.labels()}
    return True, None


def rpid_family(module, joins):
    """Trace-firstness's family route, each member that leaves the module
    nonzero tested on every class representative: the traces of one
    nonzero submodule per isomorphism class, the socle, and the first
    ``joins`` joins of pairs of those."""
    reps = [cls[0] for cls in _pairwise_partition(
        n.as_module() for n in _nonzero(module))]
    members = [Alpha(submodule(n, n.full_mask())) for n in reps] + [SOC]
    family = members + list(itertools.islice(
        map(Join, itertools.combinations(members, 2)), joins))
    return not any(pr.evaluate(n).is_zero()
                   for pr in family if not pr.evaluate(module).is_zero()
                   for n in reps)


def bkn_scan(universe):
    """Whether Hom(M, N) != 0 for all nonzero universe modules M and N, by
    ``hom_nonzero_exists`` on every ordered pair, with the first pair, in
    universe order, that fails (None when none does)."""
    nonzero = universe.nonzero_modules()
    for a in nonzero:
        for b in nonzero:
            if not hom_nonzero_exists(a, b):
                return False, (a, b)
    return True, None


def zero_socle_modules(universe):
    """The nonzero universe modules whose socle is zero."""
    return [m for m in universe.nonzero_modules()
            if structural_summary(m).socle.is_zero()]


def diuniform(module):
    """Every nonzero fully invariant submodule is essential, over the full
    lattice and its fully-invariant flags."""
    lat = enumerate_submodules(module)
    for sub, fi in zip(lat.submodules, lat.fully_invariant):
        if fi and not sub.is_zero() and not is_essential(sub):
            return False, {"kind": "non_essential_fully_invariant",
                           "submodule": sub.labels()}
    return True, None


def closure_trad_mask(module, ideal, mask=None):
    """I.N as the additive closure of the products iu, i in I, u in N."""
    add, act = module.add, module.act
    els = [u for u in range(module.order)
           if mask is None or mask >> u & 1]
    prods = {module.zero} | {act[i][u] for i in ideal.carrier for u in els}
    closed = set(prods)
    queue = list(prods)
    while queue:
        x = queue.pop()
        for y in list(closed):
            z = add[x][y]
            if z not in closed:
                closed.add(z)
                queue.append(z)
    return sum(1 << x for x in closed)
