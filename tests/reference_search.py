"""Reference witness search for the oracle's tests and cross-check scripts.

``_best_schedule`` is the exhaustive depth-first search over C(L,s)^K
schedules that the oracle used before its witness came from the
kernel-certified prefix loop ``oracle._first_schedule``.  It is kept here,
unchanged, as an independent reference: its first schedule reaching a rank
must equal the oracle's witness, and the best rank it reaches must equal the
matroid-intersection r*(K).  ``_within_reach`` is the search's cut-free
pre-check.
"""


def _within_reach(blocks, caps, target, ranks):
    """The capacities and the rank of all blocks reach ``target``: the
    cut-free pre-checks, which the reference search keeps.  ``ranks`` is a
    walk's pre-check of ``span.ranks``, fed the walk's list."""
    return sum(caps) >= target and ranks(blocks)[1] >= target


def _best_schedule(blocks, caps, supports, target, span, counter, fragile=None):
    """Depth-first search over schedules of the descending-power ``blocks``.

    Supports are tried in lexicographic order, schedule positions left to
    right.  Returns the first schedule whose rank reaches ``target``, or
    None.  Branches whose rank plus the capacity of the blocks still to come
    stays below ``target`` are cut; callers skip the blocks that fail
    ``_within_reach``.  A leaf whose running span reaches ``target`` but
    whose ``leaf_rank`` does not calls ``fragile(rank)``, which may raise.
    """
    k = len(blocks)
    suffix_cap = [0] * (k + 1)  # capacity of the blocks at depths >= d
    for d in range(k - 1, -1, -1):
        suffix_cap[d] = suffix_cap[d + 1] + caps[d]
    chosen = []

    def dfs(depth, basis):
        for sup in supports:
            counter.tick(k)
            nxt = basis.copy()
            dim = nxt.extend(blocks[depth], sup)
            if dim + suffix_cap[depth + 1] < target:
                continue
            chosen.append(sup)
            if depth + 1 < k:
                found = dfs(depth + 1, nxt)
            else:
                rank = span.leaf_rank(dim, blocks, chosen)
                found = rank >= target
                if not found and fragile:
                    fragile(rank)
            if found:
                return True
            chosen.pop()
        return False

    return tuple(chosen) if dfs(0, span.basis(len(blocks[0]))) else None
