/* Compiled core of the tabu search: the kept move values and the move scan.
 *
 * A search state keeps, besides its selection and coverage counts, each
 * item's move value: for an unselected item the gain of flipping it in (the
 * profit of its uncovered elements), for a selected one the loss of flipping
 * it out (the profit of the elements it covers alone). `bmcp_flip` updates
 * all three on every flip; `bmcp_scan` reads them.
 *
 * The instance comes with `order`, its items sorted by (weight, item), and
 * its columns: element e is covered by colitems[colptr[e]..colptr[e+1]],
 * also sorted by (weight, item), so a walk over the items light enough to
 * fit stops at the first one that is too heavy.
 *
 * All arithmetic is int64. Weight and profit totals stay below 2^62, so
 * every value, gain + correction (disjoint element sets) and every delta,
 * formed as (gain - loss) + correction, fits.
 */
#include <stdint.h>
#include <stdlib.h>

/* Flip `item` in or out; returns the change in objective.
 *
 * Only elements whose coverage crosses 0<->1 or 1<->2 change a value: at
 * 0<->1 the gain of every other item covering the element, at 1<->2 the loss
 * of the one selected item that covers it alone (before a flip in, after a
 * flip out). The flipped item's own new value is the size of the change.
 */
int64_t bmcp_flip(
    int64_t item,
    const int64_t *indptr, const int64_t *indices,
    const int64_t *colptr, const int64_t *colitems,
    const int64_t *profits,
    uint8_t *selection, int64_t *coverage, int64_t *value)
{
    int64_t in = selection[item] == 0, moved = 0;
    for (int64_t k = indptr[item]; k < indptr[item + 1]; k++) {
        int64_t e = indices[k], p = profits[e], c = coverage[e];
        int64_t from = colptr[e], to = colptr[e + 1];
        if (c == 1 - in) {
            /* Newly covered (in) or uncovered (out): every other item
             * covering e is unselected and gains p less, or more. */
            moved += p;
            int64_t dp = in ? -p : p;
            for (int64_t q = from; q < to; q++)
                value[colitems[q]] += dp;
        } else if (c == 2 - in) {
            /* Covered twice after a flip in, or once after a flip out. */
            for (int64_t q = from; q < to; q++) {
                int64_t b = colitems[q];
                if (selection[b] & (b != item)) {
                    value[b] += in ? -p : p;
                    break;
                }
            }
        }
        coverage[e] = in ? c + 1 : c - 1;
    }
    selection[item] = (uint8_t)in;
    value[item] = moved;
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
 * written to `out` as its items: `i` for the flip of item i (in or out),
 * `m + m*a + b` for the swap of selected item a for unselected item b. The
 * order is flip-ins, flip-outs, then swaps by (a, b), each in ascending item
 * order. At most `capacity` moves are written, but all are counted, and the
 * count is returned: 0 when nothing is admissible, -1 when scratch memory
 * could not be allocated. `best_delta` receives the best delta.
 *
 * For each selected a, only the entering items no heavier than
 * headroom + w[a] are walked, in (weight, item) order; the swap ties are
 * sorted back into code order at the end.
 */
int64_t bmcp_scan(
    int64_t m,
    const int64_t *indptr, const int64_t *indices,
    const int64_t *colptr, const int64_t *colitems,
    const int64_t *profits, const int64_t *weights, const int64_t *order,
    const uint8_t *selection, const int64_t *coverage, const int64_t *value,
    const int64_t *expiry, int64_t iteration,
    int64_t headroom, int64_t threshold, int64_t swaps_only,
    int64_t *out, int64_t capacity, int64_t *best_delta)
{
    /* corr[b]: the correction of swapping b in for the current a. It is
     * all zero between leaving items: the pair loop clears what it reads. */
    int64_t *corr = calloc((size_t)m, sizeof(int64_t));
    if (corr == NULL)
        return -1;
    int64_t best = INT64_MIN, count = 0;
#define CONSIDER(delta, ok, code)                                   \
    do {                                                            \
        int64_t d_ = (delta);                                       \
        if ((ok) & (d_ >= best)) {                                  \
            if (d_ > best) {                                        \
                best = d_;                                          \
                count = 0;                                          \
            }                                                       \
            if (count < capacity)                                   \
                out[count] = (code);                                \
            count++;                                                \
        }                                                           \
    } while (0)

    if (!swaps_only) {
        for (int64_t b = 0; b < m; b++) {
            int64_t d = value[b];
            CONSIDER(d, (selection[b] == 0) & (weights[b] <= headroom)
                            & ((expiry[b] < iteration) | (d > threshold)), b);
        }
        for (int64_t a = 0; a < m; a++) {
            int64_t d = -value[a];
            CONSIDER(d, selection[a] & ((expiry[a] < iteration) | (d > threshold)), a);
        }
    }

    for (int64_t a = 0; a < m; a++) {
        if (!selection[a])
            continue;
        int64_t limit = headroom + weights[a];
        /* Correction: the profit of each element a covers alone goes to
         * every item covering it, which keeps it covered when swapped in. */
        for (int64_t k = indptr[a]; k < indptr[a + 1]; k++) {
            int64_t e = indices[k];
            if (coverage[e] == 1) {
                int64_t p = profits[e];
                for (int64_t q = colptr[e]; q < colptr[e + 1]; q++) {
                    int64_t b = colitems[q];
                    if (weights[b] > limit)
                        break;
                    corr[b] += p;
                }
            }
        }
        int64_t loss = value[a], afree = expiry[a] < iteration, first = m + m * a;
        for (int64_t k = 0; k < m; k++) {
            int64_t b = order[k];
            if (weights[b] > limit)
                break;
            int64_t d = (value[b] - loss) + corr[b];
            corr[b] = 0;
            int64_t bfree = expiry[b] < iteration;
            CONSIDER(d, (selection[b] == 0) & ((afree & bfree) | (d > threshold)), first + b);
        }
    }
#undef CONSIDER
    free(corr);

    if (count <= capacity) {
        int64_t f = 0;
        while (f < count && out[f] < m)
            f++;
        qsort(out + f, (size_t)(count - f), sizeof *out, by_code);
    }
    *best_delta = best;
    return count;
}
