/* Compiled core of the tabu search: the kept move values and the move scan.
 *
 * A search state keeps, besides its selection and coverage counts, each
 * item's move value: for an unselected item the gain of flipping it in (the
 * profit of its uncovered elements), for a selected one the loss of flipping
 * it out (the profit of the elements it covers alone), and its weight and
 * objective. `bmcp_flip` updates all of them on every flip; `bmcp_move`
 * applies a checked flip or swap and `bmcp_walk` walks to another
 * selection, both by flips. `bmcp_pick` scans them with the internal
 * `bmcp_scan` and draws the tie-break from the run's own bit generator.
 * `_core.c` includes this file and exports the three as a CPython extension
 * module; this one stays plain C99 and knows nothing of Python.
 *
 * It reads one struct per search state, `bmcp_state`, over arrays its Python
 * mirror owns: the instance's, the state's own, its tabu expiry, scratch, ties.
 *
 * The instance comes with `order`, its items sorted by (weight, item), and
 * its columns: element e is covered by colitems[colptr[e]..colptr[e+1]],
 * also sorted by (weight, item), so a walk over the items light enough to
 * fit stops at the first one that is too heavy.
 *
 * All arithmetic is int64. Weight and profit totals stay below 2^62, so
 * every value, gain + correction (disjoint element sets) and every delta,
 * formed as (gain - loss) + correction, fits. The core allocates nothing.
 */
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int64_t m;
    const int64_t *indptr, *indices, *colptr, *colitems;
    const int64_t *profits, *weights, *order;
    uint8_t *selection;
    int64_t *coverage, *value, *corr; /* corr: m words, all zero between scans */
    const int64_t *expiry;            /* the iteration through which each item is tabu */
    int64_t *ties;
    int64_t capacity, best; /* room in ties; the best delta of the last scan */
    int64_t budget;         /* the instance's capacity, clamped to 2^62 */
    int64_t weight, objective;
    int64_t count; /* the tie count of the last scan */
} bmcp_state;

/* Flip `item` in or out, unchecked.
 *
 * Only elements whose coverage crosses 0<->1 or 1<->2 change a value: at
 * 0<->1 the gain of every other item covering the element, at 1<->2 the loss
 * of the one selected item that covers it alone (before a flip in, after a
 * flip out). The flipped item's own new value is the size of the change.
 */
static void bmcp_flip(bmcp_state *s, int64_t item)
{
    int64_t in = s->selection[item] == 0, moved = 0;
    for (int64_t k = s->indptr[item]; k < s->indptr[item + 1]; k++) {
        int64_t e = s->indices[k], p = s->profits[e], c = s->coverage[e];
        int64_t from = s->colptr[e], to = s->colptr[e + 1];
        if (c == 1 - in) {
            /* Newly covered (in) or uncovered (out): every other item
             * covering e is unselected and gains p less, or more. */
            moved += p;
            int64_t dp = in ? -p : p;
            for (int64_t q = from; q < to; q++)
                s->value[s->colitems[q]] += dp;
        } else if (c == 2 - in) {
            /* Covered twice after a flip in, or once after a flip out. */
            for (int64_t q = from; q < to; q++) {
                int64_t b = s->colitems[q];
                if (s->selection[b] & (b != item)) {
                    s->value[b] += in ? -p : p;
                    break;
                }
            }
        }
        s->coverage[e] = in ? c + 1 : c - 1;
    }
    s->selection[item] = (uint8_t)in;
    s->value[item] = moved;
    s->weight += in ? s->weights[item] : -s->weights[item];
    s->objective += in ? moved : -moved;
}

/* Walk to `target`, a feasible selection of m bytes, each 0 or 1: flip out
 * the selected items not in it, then flip in the rest of it. */
void bmcp_walk(bmcp_state *s, const uint8_t *target)
{
    for (int64_t i = 0; i < s->m; i++)
        if (s->selection[i] & !target[i])
            bmcp_flip(s, i);
    for (int64_t i = 0; i < s->m; i++)
        if (target[i] & !s->selection[i])
            bmcp_flip(s, i);
}

/* Apply the flip of item a (b < 0) or the swap of selected a for unselected
 * b. Returns 0 once applied; without a change, 1 when a swap's a is not
 * selected, 2 when its b is already selected, 3 when the move would exceed
 * the budget. Items must lie in 0..m-1. */
int64_t bmcp_move(bmcp_state *s, int64_t a, int64_t b)
{
    const int64_t *w = s->weights;
    if (b < 0) {
        if (!s->selection[a] && s->weight + w[a] > s->budget)
            return 3;
        bmcp_flip(s, a);
        return 0;
    }
    if (!s->selection[a])
        return 1;
    if (s->selection[b])
        return 2;
    if (s->weight + (w[b] - w[a]) > s->budget)
        return 3;
    bmcp_flip(s, a);
    bmcp_flip(s, b);
    return 0;
}

static int by_code(const void *x, const void *y)
{
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

/* Exact best-move scan of the flip and swap neighbourhoods, one pass per pick.
 *
 * Every admissible move whose delta equals the best admissible delta is
 * written to `s->ties` as its items: `i` for the flip of item i (in or out),
 * `m + m*a + b` for the swap of selected item a for unselected item b. The
 * order is flip-ins, flip-outs, then swaps by (a, b), each in ascending item
 * order. At most `s->capacity` moves are written, but all are counted, and
 * the count is returned (0 when nothing is admissible) and kept in
 * `s->count`. `s->best` receives the best delta.
 *
 * One pass over the selected items considers each one's flip-out and then
 * its swaps, walking only the entering items no heavier than
 * headroom + w[a], in (weight, item) order. The ties after the flip-ins are
 * sorted back into code order at the end: a flip-out's code, below m, sorts
 * before every swap's. Kept out of line: inlined into `bmcp_pick`, its one
 * caller, a pick on a 585-item state took ~6% longer (gcc 12, -O2).
 */
static __attribute__((noinline)) int64_t
bmcp_scan(bmcp_state *s, int64_t iteration, int64_t headroom, int64_t threshold,
          int64_t swaps_only)
{
    const int64_t m = s->m, *expiry = s->expiry;
    int64_t best = INT64_MIN, count = 0, nin = 0; /* nin: flip-in ties in front */
#define CONSIDER(delta, ok, code)                                   \
    do {                                                            \
        int64_t d_ = (delta);                                       \
        if ((ok) & (d_ >= best)) {                                  \
            if (d_ > best) {                                        \
                best = d_;                                          \
                count = nin = 0;                                    \
            }                                                       \
            if (count < s->capacity)                                \
                s->ties[count] = (code);                            \
            count++;                                                \
        }                                                           \
    } while (0)

    if (!swaps_only) {
        for (int64_t b = 0; b < m; b++) {
            int64_t d = s->value[b];
            CONSIDER(d, (s->selection[b] == 0) & (s->weights[b] <= headroom)
                            & ((expiry[b] < iteration) | (d > threshold)), b);
        }
        nin = count;
    }

    for (int64_t a = 0; a < m; a++) {
        if (!s->selection[a])
            continue;
        if (!swaps_only) {
            int64_t d = -s->value[a];
            CONSIDER(d, (expiry[a] < iteration) | (d > threshold), a);
        }
        int64_t limit = headroom + s->weights[a];
        /* corr[b], the correction of swapping b in for a: the profit of each
         * element a covers alone goes to every item covering it. Both loops
         * stop at the same limit in (weight, item) order, so the pair loop
         * clears every entry this loop writes. */
        for (int64_t k = s->indptr[a]; k < s->indptr[a + 1]; k++) {
            int64_t e = s->indices[k];
            if (s->coverage[e] == 1) {
                int64_t p = s->profits[e];
                for (int64_t q = s->colptr[e]; q < s->colptr[e + 1]; q++) {
                    int64_t b = s->colitems[q];
                    if (s->weights[b] > limit)
                        break;
                    s->corr[b] += p;
                }
            }
        }
        int64_t loss = s->value[a], afree = expiry[a] < iteration, first = m + m * a;
        for (int64_t k = 0; k < m; k++) {
            int64_t b = s->order[k];
            if (s->weights[b] > limit)
                break;
            int64_t d = (s->value[b] - loss) + s->corr[b];
            s->corr[b] = 0;
            int64_t bfree = expiry[b] < iteration;
            CONSIDER(d, (s->selection[b] == 0) & ((afree & bfree) | (d > threshold)), first + b);
        }
    }
#undef CONSIDER

    if (count <= s->capacity)
        qsort(s->ties + nin, (size_t)(count - nin), sizeof *s->ties, by_code);
    s->best = best;
    s->count = count;
    return count;
}

/* A uniform draw from 0..bound-1, for 2 <= bound <= 2^32, exactly as numpy's
 * `Generator.integers(bound)` makes it: a 32-bit Lemire draw with rejection
 * (Lemire, arXiv:1805.10941), each word from the bit generator's
 * `next_uint32`. Bounds above 2^32 take numpy's 64-bit draw, which this is
 * not, so `bmcp_pick` refuses them. */
static uint32_t draw(void *rng, uint32_t (*next_uint32)(void *), uint64_t bound)
{
    uint32_t top = (uint32_t)(bound - 1);
    if (top == UINT32_MAX)
        return next_uint32(rng);
    uint32_t span = top + 1;
    uint64_t scaled = (uint64_t)next_uint32(rng) * span;
    uint32_t leftover = (uint32_t)scaled;
    if (leftover < span) {
        uint32_t threshold = (UINT32_MAX - top) % span;
        while (leftover < threshold) {
            scaled = (uint64_t)next_uint32(rng) * span;
            leftover = (uint32_t)scaled;
        }
    }
    return (uint32_t)(scaled >> 32);
}

/* Pick the move the tabu search makes at `iteration`: scan with the state's
 * headroom and the aspiration threshold `best_so_far - objective`, then
 * break ties uniformly with one draw from the run's bit generator (`rng` and
 * its `next_uint32`); one tie draws nothing. Returns the move's code, or -1
 * without a draw when there is no move, when the ties overflowed the buffer
 * (then `s->count > s->capacity`, and a pick after growing the buffer scans
 * again) or when they number above 2^32 (then the caller refuses the pick).
 * `swaps_only` is the descent's pick: swaps only, and none unless the best
 * one improves, checked before any draw.
 *
 * |best_so_far| must stay within 2^62, so the threshold cannot wrap; the
 * module in `_core.c` saturates it there. */
int64_t bmcp_pick(bmcp_state *s, int64_t iteration, int64_t best_so_far,
                  int64_t swaps_only, void *rng, uint32_t (*next_uint32)(void *))
{
    int64_t count = bmcp_scan(s, iteration, s->budget - s->weight,
                              best_so_far - s->objective, swaps_only);
    if (count == 0 || count > s->capacity || count > (INT64_C(1) << 32)
        || (swaps_only && s->best <= 0))
        return -1;
    return s->ties[count == 1 ? 0 : draw(rng, next_uint32, (uint64_t)count)];
}
