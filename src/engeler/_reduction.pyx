# cython: language_level=3
# distutils: language = c++
"""Compiled search kernel for the bounded rewrite-reachability check.

Mirrors engeler.rewrite._reduces_to_py step for step: same one-step
reducts, same (size, hash) frontier ordering, same width truncation
before the visited set is extended.  Terms arrive as nested tuples
(atom name | var index | (left, right)) and are hash-consed into an
arena so equality checks inside the search are id comparisons.  The
pure-Python search hash-conses the nodes it builds in the same way, in a
table that lives for one call.
"""

from libc.stdint cimport int64_t, uint64_t
from libcpp.unordered_map cimport unordered_map
from libcpp.unordered_set cimport unordered_set
from libcpp.vector cimport vector
from libcpp.algorithm cimport sort as cpp_sort
from libcpp.pair cimport pair

cdef extern from *:
    """
    #include <cstdint>

    static inline uint64_t mix64(uint64_t tag, uint64_t a, uint64_t b) {
        uint64_t h = tag * 0x9E3779B97F4A7C15ULL;
        h ^= a;
        h *= 0xC2B2AE3D27D4EB4FULL;
        h ^= b;
        h *= 0x165667B19E3779F9ULL;
        return h ^ (h >> 29);
    }
    """
    uint64_t mix64(uint64_t tag, uint64_t a, uint64_t b) nogil

DEF KIND_ATOM = 0
DEF KIND_VAR = 1
DEF KIND_APP = 2

# order matches terms.ATOM_NAMES, so hashes agree with the Python side
_ATOM_IDS = {"K": 0, "S": 1, "B": 2, "I": 3, "J": 4, "L": 5, "M": 6}
cdef int[7] ATOM_ARITY
ATOM_ARITY[0] = 2  # K
ATOM_ARITY[1] = 3  # S
ATOM_ARITY[2] = 3  # B
ATOM_ARITY[3] = 1  # I
ATOM_ARITY[4] = 4  # J
ATOM_ARITY[5] = 2  # L
ATOM_ARITY[6] = 1  # M


cdef struct Node:
    int kind
    int payload      # atom id or var index
    int left
    int right
    int64_t size
    uint64_t hash


cdef cppclass Arena:
    vector[Node] nodes
    unordered_map[uint64_t, vector[int]] index

    int find_or_add(int kind, int payload, int left, int right,
                    int64_t size, uint64_t h):
        cdef vector[int]* bucket = &this.index[h]
        cdef int cand
        cdef size_t i
        for i in range(bucket.size()):
            cand = bucket[0][i]
            if (this.nodes[cand].kind == kind
                    and this.nodes[cand].payload == payload
                    and this.nodes[cand].left == left
                    and this.nodes[cand].right == right):
                return cand
        cdef Node n
        n.kind = kind
        n.payload = payload
        n.left = left
        n.right = right
        n.size = size
        n.hash = h
        this.nodes.push_back(n)
        cand = <int>this.nodes.size() - 1
        bucket.push_back(cand)
        return cand

    int leaf(int kind, int payload):
        cdef uint64_t tag = 1 if kind == KIND_ATOM else 2
        cdef uint64_t h = mix64(tag, <uint64_t>(payload + 1), 0)
        return this.find_or_add(kind, payload, -1, -1, 1, h)

    int app(int left, int right):
        cdef uint64_t h = mix64(3, this.nodes[left].hash, this.nodes[right].hash)
        return this.find_or_add(KIND_APP, 0, left, right,
                                this.nodes[left].size + this.nodes[right].size, h)


cdef int _try_contract(Arena* ar, int t):
    """Contractum id if t spans exactly one full redex, else -1."""
    cdef int node = t
    cdef int n = 0
    while ar.nodes[node].kind == KIND_APP:
        n += 1
        node = ar.nodes[node].left
    if ar.nodes[node].kind != KIND_ATOM:
        return -1
    cdef int atom_id = ar.nodes[node].payload
    if ATOM_ARITY[atom_id] != n:
        return -1
    # collect the arguments in application order (n <= 4 here)
    cdef int[4] args
    cdef int k = n
    node = t
    while ar.nodes[node].kind == KIND_APP:
        k -= 1
        args[k] = ar.nodes[node].right
        node = ar.nodes[node].left
    if atom_id == 0:    # K a b -> a
        return args[0]
    if atom_id == 1:    # S a b c -> (a c)(b c)
        return ar.app(ar.app(args[0], args[2]), ar.app(args[1], args[2]))
    if atom_id == 2:    # B a b c -> a (b c)
        return ar.app(args[0], ar.app(args[1], args[2]))
    if atom_id == 3:    # I a -> a
        return args[0]
    if atom_id == 4:    # J a b c d -> (a b)((a d) c)
        return ar.app(ar.app(args[0], args[1]),
                      ar.app(ar.app(args[0], args[3]), args[2]))
    if atom_id == 5:    # L a b -> a (b b)
        return ar.app(args[0], ar.app(args[1], args[1]))
    # M a -> a a
    return ar.app(args[0], args[0])


cdef void _add_reducts(Arena* ar, int t, vector[int]* out):
    cdef int c, base, i
    if ar.nodes[t].kind != KIND_APP:
        return
    c = _try_contract(ar, t)
    if c >= 0:
        out.push_back(c)
    cdef int left = ar.nodes[t].left
    cdef int right = ar.nodes[t].right
    base = <int>out.size()
    _add_reducts(ar, left, out)
    for i in range(base, <int>out.size()):
        out[0][i] = ar.app(out[0][i], right)
    base = <int>out.size()
    _add_reducts(ar, right, out)
    for i in range(base, <int>out.size()):
        out[0][i] = ar.app(left, out[0][i])


cdef int _intern(Arena* ar, obj) except -2:
    if isinstance(obj, str):
        return ar.leaf(KIND_ATOM, _ATOM_IDS[obj])
    if isinstance(obj, int):
        return ar.leaf(KIND_VAR, <int>obj)
    return ar.app(_intern(ar, obj[0]), _intern(ar, obj[1]))


cdef struct Ranked:
    int64_t size
    uint64_t hash
    int id


cdef bint _ranked_less(const Ranked& a, const Ranked& b) nogil:
    if a.size != b.size:
        return a.size < b.size
    if a.hash != b.hash:
        return a.hash < b.hash
    return a.id < b.id


def reaches(x, y, int fuel, int width):
    """Bounded BFS over all one-step redex choices, as in the pure kernel."""
    cdef Arena ar
    cdef int xid = _intern(&ar, x)
    cdef int yid = _intern(&ar, y)
    if xid == yid:
        return True

    cdef vector[int] frontier
    cdef unordered_set[int] visited
    cdef unordered_set[int] nxt
    cdef vector[int] reducts
    cdef vector[Ranked] order
    cdef Ranked entry
    cdef int level, t, r
    cdef size_t i, j, keep

    frontier.push_back(xid)
    visited.insert(xid)
    for level in range(fuel):
        nxt.clear()
        for i in range(frontier.size()):
            t = frontier[i]
            reducts.clear()
            _add_reducts(&ar, t, &reducts)
            for j in range(reducts.size()):
                r = reducts[j]
                if r == yid:
                    return True
                if visited.find(r) == visited.end():
                    nxt.insert(r)
        if nxt.empty():
            return False
        order.clear()
        for r in nxt:
            entry.size = ar.nodes[r].size
            entry.hash = ar.nodes[r].hash
            entry.id = r
            order.push_back(entry)
        cpp_sort(order.begin(), order.end(), _ranked_less)
        keep = order.size()
        if width >= 0 and <size_t>width < keep:
            keep = <size_t>width
        frontier.clear()
        for i in range(keep):
            frontier.push_back(order[i].id)
            visited.insert(order[i].id)
    return False
