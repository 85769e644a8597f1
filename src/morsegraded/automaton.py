"""Finite-state recognition of surviving-cell label sequences.

Words are label sequences read from the top of the chain down.  States
remember previously seen pair-leads and letters in order of most recent
occurrence; that bounded history is enough to decide whether a new letter
lands in some earlier window's non-essential set.  The length generating
series of the language comes out of the transfer matrix as a ratio of
integer polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import FacetOrderConfig
from .errors import CollectionEnumerationOverflow, InternalInvariantError, MorsegradedError
from .groebner import GroebnerBasis, leading_ideal_member
from .orders import content_monomial

INIT = ("init",)

# Most states an automaton build may explore before it is refused.
DEFAULT_STATE_BUDGET = 1_000_000


@dataclass
class MorseAutomaton:
    """Deterministic automaton over generator-index letters."""

    n_labels: int
    states: list
    initial: int
    finals: set[int]
    transitions: dict[tuple[int, int], int]

    def accepts(self, word) -> bool:
        at = self.initial
        for letter in word:
            at = self.transitions.get((at, letter))
            if at is None:
                return False
        return at in self.finals

    def words_up_to(self, max_len: int) -> dict[int, list[tuple[int, ...]]]:
        """All accepted words by length, enumerated by walking the graph."""
        out: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, max_len + 1)}
        stack = [(self.initial, ())]
        while stack:
            at, word = stack.pop()
            if len(word) == max_len:
                continue
            for letter in range(self.n_labels):
                nxt = self.transitions.get((at, letter))
                if nxt is None:
                    continue
                w = word + (letter,)
                if nxt in self.finals:
                    out[len(w)].append(w)
                stack.append((nxt, w))
        for k in out:
            out[k].sort()
        return out

    def count_words(self, max_len: int) -> list[int]:
        """Word counts per length 0..max_len by dynamic programming."""
        vec = {self.initial: 1}
        counts = [1 if self.initial in self.finals else 0]
        for _ in range(max_len):
            nxt: dict[int, int] = {}
            for at, mult in vec.items():
                for letter in range(self.n_labels):
                    to = self.transitions.get((at, letter))
                    if to is not None:
                        nxt[to] = nxt.get(to, 0) + mult
            vec = nxt
            counts.append(sum(m for s, m in vec.items() if s in self.finals))
        return counts

    def to_json(self) -> dict:
        return {
            "alphabet": self.n_labels,
            "initial": self.initial,
            "finals": sorted(self.finals),
            "n_states": len(self.states),
            "transitions": [
                [s, letter, t] for (s, letter), t in sorted(self.transitions.items())
            ],
        }


# -- construction ----------------------------------------------------------------


class _Rules:
    """Transition logic for a fixed basis of any degree.

    A window is a leading term's labels in label order: a pair lead (two
    letters that do not commute) or the labels of a lead of degree > 2.  A
    lead of degree > 2 is consumed as one collection transition, whose
    labels are read in descending order through intermediate ``C`` states,
    so words stay plain letter strings.  A collection is tried only when
    the last two letters commute, and only a descent enters the pending
    ``U`` state.

    Why no window is blocked, and why a pair lead never enters ``U``.  In
    every ``F`` state ("F", items, last), ("L", last) is the last ``L``
    item, and the only item after it is the ``I`` window opened in the same
    step, whose lowest label is last.  in_nes(items, pos, x) needs x to rank
    strictly above the lowest label of the window at pos, and every ``L``
    label after that window to rank below x and commute with it.
    - No window admits last: one before ("L", last) has last itself after
      it, and the one after it starts at last.  Removing an ``L`` item
      other than last changes neither fact, so no earlier letter can drop
      into a window, pair or collection, that the next letter opens under
      last: that would put last in some window's non-essential set.
    - When letter and last form a pair lead, letter does not commute with
      last and rank[letter] <= rank[last], so no window admits letter: one
      before ("L", last) is blocked by last, and the one after it starts
      at last.  So nes_violation(items, letter) is False there.

    Why _shift_stays_critical always finds a window admitting lam.  A ``U``
    state (items + ("L", lam), lam, last) is entered only when
    nes_violation(items, lam) held, so some window of items admits lam.
    No ("L", lam) follows that window, since a later label must rank
    strictly below lam.  Removing ("L", lam) from items therefore leaves the
    window and every ``L`` label after it in place, and the window still
    admits lam.
    """

    def __init__(self, gb: GroebnerBasis, cfg: FacetOrderConfig):
        self.gb = gb
        self.commutes = gb.commutes
        self.rank = cfg.order.label_rank
        self.n = cfg.order.n
        self._fit_rows: dict[tuple[int, ...], tuple[bool, ...]] = {}
        self.high_leads: list[tuple[int, ...]] = []
        for b in gb.elements:
            labels = []
            for i, e in enumerate(b.plus):
                labels.extend([i] * e)
            if len(labels) > 2:
                labels.sort(key=lambda i: self.rank[i])
                self.high_leads.append(tuple(labels))

    def pair_kind(self, lam: int, mu: int) -> str | None:
        # mu was read first (sits above lam in the chain)
        if self.rank[lam] > self.rank[mu]:
            return "descent"
        if not self.commutes[lam][mu]:
            return "lead"
        return None

    def _labels_after(self, items, pos) -> list[int]:
        return [it[1] for it in items[pos + 1 :] if it[0] == "L"]

    def _fits(self, window) -> tuple[bool, ...]:
        """Per letter lam: does lam rank strictly inside the window, and do
        the window less its last label and the window less its first label,
        each times lam, avoid the leading ideal?  For a pair (a1, a2) that
        is commutes[a1][lam] and commutes[a2][lam]."""
        row = self._fit_rows.get(window)
        if row is None:
            lo, hi = self.rank[window[0]], self.rank[window[-1]]
            row = tuple(
                lo < self.rank[lam] < hi
                and not leading_ideal_member(self.gb, content_monomial(window[:-1] + (lam,), self.n))
                and not leading_ideal_member(self.gb, content_monomial(window[1:] + (lam,), self.n))
                for lam in range(self.n)
            )
            self._fit_rows[window] = row
        return row

    def in_nes(self, items, window_pos: int, lam: int) -> bool:
        """Is lam in the non-essential set of the window at window_pos?"""
        if not self._fits(items[window_pos][1])[lam]:
            return False
        for nu in self._labels_after(items, window_pos):
            if not self.commutes[lam][nu]:
                return False  # blocked by a non-commuting label
            if self.rank[nu] >= self.rank[lam]:
                return False  # cannot sort past a larger label
        return True

    def nes_violation(self, items, lam: int) -> bool:
        return any(
            it[0] == "I" and self.in_nes(items, pos, lam)
            for pos, it in enumerate(items)
        )

    def append(self, items, new_items):
        out = [it for it in items if it not in new_items]
        out.extend(new_items)
        return tuple(out)

    def step(self, state, letter: int):
        """Next state or None; states are hashable description tuples."""
        if state == INIT:
            return ("F", (("L", letter),), letter)
        if state[0] == "C":
            _, base, lead, consumed = state
            if letter != lead[-2 - consumed]:
                return None
            return self._collect(base, lead, consumed + 1, letter)
        if state[0] == "U":
            return self._rescue(state, letter)
        _, items, last = state
        kind = self.pair_kind(letter, last)
        if kind == "descent":
            if self.nes_violation(items, letter):
                return ("U", self.append(items, (("L", letter),)), letter, last)
            return ("F", self.append(items, (("L", letter),)), letter)
        if kind == "lead":
            return ("F", self.append(items, (("L", letter), ("I", (letter, last)))), letter)
        # the last two letters commute: try to open a collection
        candidates = [
            lead for lead in self.high_leads if lead[-1] == last and lead[-2] == letter
        ]
        if not candidates:
            return None
        if len(candidates) > 1:
            raise CollectionEnumerationOverflow(
                "ambiguous overlapping collection transitions; basis not supported"
            )
        return self._collect(state, candidates[0], 1, letter)

    def _collect(self, base, lead, consumed: int, letter: int):
        """State once consumed labels of lead below its largest are read,
        the last of them letter, in a collection opened at F state base."""
        if consumed < len(lead) - 1:
            return ("C", base, lead, consumed)
        _, items, _ = base
        return ("F", self.append(items, (("L", letter), ("I", lead))), letter)

    def _rescue(self, state, letter: int):
        """Only a letter forming a window under the pending label leaves U."""
        _, items, lam, mu = state
        if self.rank[letter] > self.rank[lam] or self.commutes[letter][lam]:
            return None
        rescue = (
            self.rank[letter] < self.rank[mu]
            and self.commutes[letter][mu]
            and not self._shift_stays_critical(items, lam, letter)
        )
        if not rescue:
            pruned = tuple(it for it in items if it != ("L", lam))
            rescue = self.nes_violation(pruned, letter)
        if not rescue:
            return None
        new = self.append(items, (("L", letter), ("I", (letter, lam))))
        return ("F", new, letter)

    def _shift_stays_critical(self, items, lam: int, lam2: int) -> bool:
        """Would the cell stay critical after lam climbs into its window?

        The abandoned gap between lam2 and the letters above it can only be
        covered by a syzygy window running from lam2 up to lam's landing
        spot; the window exists exactly when that run is weakly increasing
        and carries no pair-lead other than (lam2, lam) itself.
        """
        before = tuple(it for it in items if it != ("L", lam))
        target = next(
            pos
            for pos in range(len(before) - 1, -1, -1)
            if before[pos][0] == "I" and self.in_nes(before, pos, lam)
        )
        a1 = before[target][1][0]
        segment = [it[1] for it in before[target + 1 :] if it[0] == "L"]
        run = [lam2] + list(reversed(segment)) + [a1, lam]
        if any(self.rank[a] > self.rank[b] for a, b in zip(run, run[1:])):
            return False
        last = len(run) - 1
        for i in range(len(run)):
            for j in range(i + 1, len(run)):
                if (i, j) != (0, last) and not self.commutes[run[i]][run[j]]:
                    return False
        return True


def _explore(rules, n_labels: int, state_budget: int) -> MorseAutomaton:
    index = {INIT: 0}
    states = [INIT]
    transitions: dict[tuple[int, int], int] = {}
    finals: set[int] = set()
    stack = [INIT]
    while stack:
        st = stack.pop()
        i = index[st]
        if st[0] == "F":
            finals.add(i)
        for letter in range(n_labels):
            nxt = rules.step(st, letter)
            if nxt is None:
                continue
            j = index.get(nxt)
            if j is None:
                j = len(states)
                if j >= state_budget:
                    raise CollectionEnumerationOverflow(
                        f"automaton construction exceeded {state_budget} states"
                    )
                index[nxt] = j
                states.append(nxt)
                stack.append(nxt)
            transitions[(i, letter)] = j
    return MorseAutomaton(n_labels, states, 0, finals, transitions)


def build_quadratic_automaton(
    gb: GroebnerBasis, cfg: FacetOrderConfig, state_budget: int = DEFAULT_STATE_BUDGET
) -> MorseAutomaton:
    """The automaton of a quadratic basis; refuses higher degrees."""
    if not gb.quadratic:
        raise MorsegradedError("quadratic automaton needs a basis of degree <= 2")
    return _explore(_Rules(gb, cfg), cfg.order.n, state_budget)


def build_degree_d_automaton(
    gb: GroebnerBasis, cfg: FacetOrderConfig, state_budget: int = DEFAULT_STATE_BUDGET
) -> MorseAutomaton:
    """The automaton of a basis of any degree."""
    return _explore(_Rules(gb, cfg), cfg.order.n, state_budget)


# -- rational generating series ---------------------------------------------------


@dataclass(frozen=True)
class RationalSeries:
    """numerator / denominator as integer coefficient lists, low degree first."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def coefficients(self, count: int) -> list[int]:
        den = list(self.denominator)
        num = list(self.numerator)
        if not den or den[0] == 0:
            raise InternalInvariantError("series: denominator has zero constant term")
        out = []
        for k in range(count):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            if acc % den[0]:
                raise InternalInvariantError("series: expansion is not integral")
            out.append(acc // den[0])
        return out

    def render(self) -> str:
        def poly(cs):
            terms = []
            for k, c in enumerate(cs):
                if c == 0:
                    continue
                if k == 0:
                    terms.append(str(c))
                elif k == 1:
                    terms.append(f"{c}*t")
                else:
                    terms.append(f"{c}*t^{k}")
            return " + ".join(terms).replace("+ -", "- ") if terms else "0"

        return f"({poly(self.numerator)}) / ({poly(self.denominator)})"


def _minimize(auto: MorseAutomaton) -> MorseAutomaton | None:
    """The minimal automaton of auto's language, or None if it is empty:
    Moore refinement with an implicit dead state, numbered past the last."""
    n_states, n_labels, edges = len(auto.states), auto.n_labels, auto.transitions
    dead = n_states
    classes = [0] * (n_states + 1)
    for s in auto.finals:
        classes[s] = 1
    while True:
        signatures: dict[tuple, int] = {}
        new_classes = []
        for s in range(n_states + 1):
            sig = (classes[s], tuple(classes[edges.get((s, a), dead)] for a in range(n_labels)))
            new_classes.append(signatures.setdefault(sig, len(signatures)))
        if new_classes == classes:
            break
        classes = new_classes
    start = classes[auto.initial]
    if start == classes[dead]:
        return None
    rep = {c: s for s, c in enumerate(classes)}
    number = {start: 0}
    walk = [start]
    m_edges: dict[tuple[int, int], int] = {}
    for c in walk:  # the walk appends each class it reaches
        for a in range(n_labels):
            d = classes[edges.get((rep[c], a), dead)]
            if d == classes[dead]:
                continue
            if d not in number:
                number[d] = len(walk)
                walk.append(d)
            m_edges[(number[c], a)] = number[d]
    finals = {number[c] for c in walk if rep[c] in auto.finals}
    return MorseAutomaton(n_labels, list(range(len(walk))), 0, finals, m_edges)


def _det_one_minus_tm(mat: list[list[int]]) -> list[int]:
    """det(I - tM) for an integer matrix M, low degree first, by the
    Faddeev-LeVerrier recurrence; see `rational_series` for the proof."""
    n = len(mat)
    den = [1]
    m_k = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(mat[i][l] * m_k[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        trace = sum(prod[i][i] for i in range(n))
        if trace % k:
            raise InternalInvariantError(f"series: trace {trace} not divisible by {k}")
        den.append(-trace // k)
        m_k = [[x + den[k] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(prod)]
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    return den


def rational_series(auto: MorseAutomaton, verify_len: int = 8) -> RationalSeries:
    """Length generating series of auto's language, N(t) / det(I - tM).

    M is the transfer matrix of `_minimize(auto)`: entry (s, t) counts the
    letters from state s to state t.
    - No trim pass.  Moore refinement puts two states in one class iff they
      accept the same words.  A state that reaches no final state accepts
      none, as the dead state does, so it is dropped with the dead class.
      If the initial state is, the language is empty and the series 0 / 1.
    - No unreachable states.  The states of a class agree on the class of
      each successor, so class edges are well defined.  A path entering
      the dead class stays there, so the words are the paths from the
      initial class to a final one through the classes a walk from it
      keeps: dead and unreachable states of auto leave M unchanged.
    - Denominator.  det(I - tM) = t^n chi_M(1/t), so its t^k coefficient is
      the coefficient c_{n-k} of chi_M.  With M_1 = I and
      M_{k+1} = M M_k + c_{n-k} I, M_k = sum_{j<k} c_{n-j} M^{k-1-j}, and
      Newton's identity k c_{n-k} = -sum_{j<k} c_{n-j} tr M^{k-j} reads
      c_{n-k} = -tr(M M_k) / k (Faddeev-LeVerrier).  For an integer M every
      c_j and M_k is integral, so each division is exact; a remainder is
      an invariant breach.

    The t^k coefficient u^T M^k v (u, v the initial and final indicators)
    counts the words of length k; `count_words` reads it off the minimal
    automaton.  The numerator u^T adj(I - tM) v has degree below n, and it
    is the denominator times the counted series, truncated.  Checks: counts
    on auto up to verify_len against the minimal automaton's, and the
    numerator degree over every counted coefficient.  A failure is an
    `InternalInvariantError` of the series stage.  The denominator's
    constant term is 1, so the closed form expands to the counted
    coefficients by construction, and its coefficients share no factor.
    """
    direct = auto.count_words(verify_len)
    minimal = _minimize(auto)
    if minimal is None:
        if any(direct):
            raise InternalInvariantError("series: empty minimal automaton but words exist")
        return RationalSeries((0,), (1,))
    n = len(minimal.states)
    mat = [[0] * n for _ in range(n)]
    for (s, _a), t in minimal.transitions.items():
        mat[s][t] += 1
    den = _det_one_minus_tm(mat)
    coeffs = minimal.count_words(2 * n + max(verify_len, len(den)) + 1)
    num = [
        sum(den[j] * coeffs[k - j] for j in range(min(k, len(den) - 1) + 1))
        for k in range(len(coeffs))
    ]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    if len(num) > n:
        raise InternalInvariantError("series: numerator degree exceeds transfer-matrix bound")
    if direct != coeffs[: verify_len + 1]:
        raise InternalInvariantError("series: transfer-matrix counts disagree with direct counting")
    return RationalSeries(tuple(num), tuple(den))


# -- commutation classes -----------------------------------------------------------


@dataclass(frozen=True)
class CommutationClass:
    """Words of one content equal up to swapping adjacent commuting letters."""

    content: tuple[int, ...]
    representative: tuple[int, ...]
    size: int


def _extend(word, below, a, rank, commutes):
    """Dependence mask of the position `a` takes when appended to `word`.

    `below[s]` is the set of positions under position s in the dependence
    order of `word`, as a bitmask.  Returns None when word·a is not a
    lexicographic normal form, or when its last two occurrences of a
    self-commuting `a` are a cover (see `commutation_classes`).
    """
    for b in reversed(word):
        if b == a or not commutes[a][b]:
            break
        if rank[b] > rank[a]:
            return None
    direct = deep = 0
    last = -1
    for s, b in enumerate(word):
        if b == a or not commutes[a][b]:
            direct |= 1 << s
            deep |= below[s]
            if b == a:
                last = s
    if last >= 0 and commutes[a][a] and not deep >> last & 1:
        return None
    return direct | deep


def _linear_extensions(below) -> int:
    """Linear extensions of the order `below`, by a count over down-sets."""
    ways = {0: 1}
    for _ in below:
        grown: dict[int, int] = {}
        for done, count in ways.items():
            for t, mask in enumerate(below):
                if not done >> t & 1 and mask & done == mask:
                    key = done | 1 << t
                    grown[key] = grown.get(key, 0) + count
        ways = grown
    return ways[(1 << len(below)) - 1]


class _ClassTable:
    """The search tree of `commutation_classes` for one basis and one label
    order, grown one word length at a time.

    `level` holds the (word, below) nodes of length `length`, the longest
    grown, in lexicographic order.  `classes` maps each rank-sorted content
    of length at most `length` to its classes, in the same order.
    """

    def __init__(self, gb: GroebnerBasis, cfg: FacetOrderConfig):
        self.rank = cfg.order.label_rank
        self.commutes = gb.commutes
        self.letters = sorted(range(cfg.order.n), key=self.rank.__getitem__)
        self.length = 0
        self.level = [((), ())]
        self.classes: dict[tuple[int, ...], list[CommutationClass]] = {
            (): [CommutationClass((), (), 1)]
        }

    def _grow(self) -> None:
        """Append each letter, in rank order, to every node of the last
        level: the next level comes out in lexicographic order."""
        rank, commutes, classes = self.rank, self.commutes, self.classes
        grown = []
        for word, below in self.level:
            for a in self.letters:
                mask = _extend(word, below, a, rank, commutes)
                if mask is not None:
                    w, b = word + (a,), below + (mask,)
                    grown.append((w, b))
                    content = tuple(sorted(w, key=rank.__getitem__))
                    classes.setdefault(content, []).append(
                        CommutationClass(content, w, _linear_extensions(b))
                    )
        self.level = grown
        self.length += 1

    def lookup(self, content: tuple[int, ...]) -> list[CommutationClass]:
        while self.level and self.length < len(content):
            self._grow()
        return self.classes.get(content, [])


def commutation_classes(
    gb: GroebnerBasis, cfg: FacetOrderConfig, content
) -> list[CommutationClass]:
    """Non-stuttering commutation classes of the given content.

    Letters a != b commute when their product avoids the leading ideal
    (`gb.commutes`); a class holds the words reached by swapping adjacent
    commuting letters.  It stutters if some member has two adjacent equal
    letters whose square also avoids the leading ideal.  Only classes that
    do not stutter are returned, each with its lexicographically least
    member under the label order, in increasing order of that member, and
    with its number of members.  The list is the caller's own.

    A search tree visits only prefixes of such least members.  Positions
    s < t of a word are dependent when their letters are equal or do not
    commute; the dependence order is the transitive closure, and `_extend`
    keeps it as one bitmask per position.  Three facts make the tree
    exact:

    - Normal forms.  A word is least in its class iff it has no factor
      b·u·a with rank(b) > rank(a), where a commutes with b and with every
      letter of u.  Such a factor lets a move left past u and b, giving a
      smaller member.  Conversely, if a member w' is smaller, let p be the
      first position where w'[p] = a differs from w[p] = b; the occurrence
      of a that w' places at p lies at some q > p in w, and it can move to
      p only if a commutes with every letter of w[p..q), so w[p..q] is such
      a factor.  Every factor of a normal form is one, so a prefix with
      the factor is cut with all its extensions; a new letter can only
      close a factor that ends with it, which a scan back from the end
      finds.
    - Stuttering.  The words of a class are the linear extensions of one
      dependence order.  Two occurrences s < t of a letter are comparable,
      so they are adjacent in some linear extension iff t covers s: list
      the strict down-set of t without s (a down-set, as t covers s), then
      s, then t, then the rest;
      any r with s < r < t separates them in every extension.  So the class
      stutters iff some self-commuting letter has consecutive occurrences
      in a cover.  A chain from s up to t passes only through positions
      between them, so appending letters adds no relation among earlier
      positions: a cover in a prefix stays one in every extension, and the
      search cuts it there.
    - Size.  Occurrences of one letter form a chain, so each word of the
      class is one linear extension and back: `size` counts the linear
      extensions over down-sets, at most 2^n states for n letters.

    One tree per basis.  The cut reads the prefix and never the content,
    so the tree of all words up to length m, grown by every letter, is the
    union of the trees a search confined to one content of length m would
    grow, and its nodes of length k with content c are exactly the least
    members of the non-stuttering classes of c.  `gb.class_tables` keeps
    that tree for cfg's order (`_ClassTable`): a content of length m grows
    the missing levels once, each from the last by appending letters in
    rank order, so every level is in lexicographic order, and files each
    node with its class size under its content.  Growing to length m
    visits each node of the union once, so never more nodes than the
    per-content searches of all contents of length m summed, and one
    request covers the whole level: every later call, of any length up to
    m, is a lookup.
    """
    tables = gb.class_tables
    table = tables.get(cfg.order)
    if table is None:
        table = tables[cfg.order] = _ClassTable(gb, cfg)
    rank = cfg.order.label_rank
    return list(table.lookup(tuple(sorted(content, key=lambda i: rank[i]))))
