/* Compiled core of the tabu search: the kept move values and the move scan.
 *
 * A search state keeps, besides its selection and coverage counts, each
 * item's move value: for an unselected item the gain of flipping it in (the
 * profit of its uncovered elements), for a selected one the loss of flipping
 * it out (the profit of the elements it covers alone). `bmcp_flip` updates
 * all three on every flip; `bmcp_scan` reads them.
 *
 * It reads one struct per search state, `bmcp_state`: the instance's arrays,
 * the state's own, its per-item tabu expiry and the scan's scratch and ties.
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
} bmcp_state;

/* Flip `item` in or out; returns the change in objective.
 *
 * Only elements whose coverage crosses 0<->1 or 1<->2 change a value: at
 * 0<->1 the gain of every other item covering the element, at 1<->2 the loss
 * of the one selected item that covers it alone (before a flip in, after a
 * flip out). The flipped item's own new value is the size of the change.
 */
int64_t bmcp_flip(bmcp_state *s, int64_t item)
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
    return in ? moved : -moved;
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
 * the count is returned (0 when nothing is admissible). `s->best` receives
 * the best delta.
 *
 * For each selected a, only the entering items no heavier than
 * headroom + w[a] are walked, in (weight, item) order; the swap ties are
 * sorted back into code order at the end.
 */
int64_t bmcp_scan(bmcp_state *s, int64_t iteration, int64_t headroom,
                  int64_t threshold, int64_t swaps_only)
{
    const int64_t m = s->m, *expiry = s->expiry;
    int64_t best = INT64_MIN, count = 0;
#define CONSIDER(delta, ok, code)                                   \
    do {                                                            \
        int64_t d_ = (delta);                                       \
        if ((ok) & (d_ >= best)) {                                  \
            if (d_ > best) {                                        \
                best = d_;                                          \
                count = 0;                                          \
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
        for (int64_t a = 0; a < m; a++) {
            int64_t d = -s->value[a];
            CONSIDER(d, s->selection[a] & ((expiry[a] < iteration) | (d > threshold)), a);
        }
    }

    for (int64_t a = 0; a < m; a++) {
        if (!s->selection[a])
            continue;
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

    if (count <= s->capacity) {
        int64_t f = 0;
        while (f < count && s->ties[f] < m)
            f++;
        qsort(s->ties + f, (size_t)(count - f), sizeof *s->ties, by_code);
    }
    s->best = best;
    return count;
}
