/* Exact best-move scan of the flip and swap neighbourhoods, one pass per pick.
 *
 * Every admissible move whose delta equals the best admissible delta is
 * written to `out` as its items: `i` for the flip of item i (in or out),
 * `m + m*a + b` for the swap of selected item a for unselected item b. The
 * scan order is flip-ins, flip-outs, then swaps by (a, b), each in ascending
 * item order, and the count is returned: 0 when nothing is admissible, -1
 * when scratch memory could not be allocated.
 * `best_delta` receives that best delta.
 *
 * All arithmetic is int64. Weight and profit totals stay below 2^62, so
 * gain + correction (disjoint element sets) stays below 2^62 and every
 * delta, formed as (gain - loss) + correction, fits.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

int64_t bmcp_scan(
    int64_t m,
    const int64_t *indptr, const int64_t *indices,
    const int64_t *colptr, const int64_t *colitems,
    const int64_t *profits, const int64_t *weights,
    const uint8_t *selection, const int64_t *coverage,
    const int64_t *expiry, int64_t iteration,
    int64_t headroom, int64_t threshold, int64_t swaps_only,
    int64_t *out, int64_t *best_delta)
{
    /* rank: unselected rank of an unselected item; u (a dump slot of the
     * correction row) for a selected one. uitem: the item of each
     * unselected rank. value: gain of flipping an unselected item in, loss
     * of flipping a selected one out. */
    int64_t *scratch = malloc((size_t)(8 * m + 1) * sizeof(int64_t));
    if (scratch == NULL)
        return -1;
    int64_t *rank = scratch, *uitem = rank + m, *value = uitem + m;
    int64_t *sel = value + m, *ugain = sel + m, *uweight = ugain + m;
    int64_t *ufree = uweight + m;
    int64_t *row = ufree + m; /* u + 1 entries, the last one the dump slot */
    int64_t s = 0, u = 0;

    for (int64_t i = 0; i < m; i++) {
        /* Branch-free: an unselected item gains the uncovered elements of
         * its row, a selected one loses those it covers alone. */
        int64_t target = selection[i] != 0, v = 0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
            int64_t e = indices[k];
            v += profits[e] & -(int64_t)(coverage[e] == target);
        }
        value[i] = v;
        if (target) {
            sel[s++] = i;
        } else {
            rank[i] = u;
            uitem[u] = i;
            ugain[u] = v;
            uweight[u] = weights[i];
            ufree[u] = expiry[i] < iteration;
            u++;
        }
    }
    for (int64_t r = 0; r < s; r++)
        rank[sel[r]] = u;

    int64_t best = INT64_MIN, count = 0;
#define CONSIDER(delta, ok, index)                                  \
    do {                                                            \
        int64_t d_ = (delta);                                       \
        if ((ok) & (d_ >= best)) {                                  \
            if (d_ > best) {                                        \
                best = d_;                                          \
                count = 0;                                          \
            }                                                       \
            out[count++] = (index);                                 \
        }                                                           \
    } while (0)

    if (!swaps_only) {
        for (int64_t j = 0; j < u; j++) {
            int64_t d = ugain[j];
            CONSIDER(d, (uweight[j] <= headroom) & (ufree[j] | (d > threshold)),
                     uitem[j]);
        }
        for (int64_t r = 0; r < s; r++) {
            int64_t a = sel[r], d = -value[a];
            CONSIDER(d, (expiry[a] < iteration) | (d > threshold), a);
        }
    }

    for (int64_t r = 0; r < s; r++) {
        int64_t a = sel[r];
        /* Correction: the profit of each element a covers alone goes to
         * every unselected item covering it, which keeps it covered. */
        memset(row, 0, (size_t)(u + 1) * sizeof(int64_t));
        for (int64_t k = indptr[a]; k < indptr[a + 1]; k++) {
            int64_t e = indices[k];
            if (coverage[e] == 1) {
                int64_t p = profits[e];
                for (int64_t c = colptr[e]; c < colptr[e + 1]; c++)
                    row[rank[colitems[c]]] += p;
            }
        }
        int64_t loss = value[a], limit = headroom + weights[a];
        int64_t afree = expiry[a] < iteration, first = m + m * a;
        for (int64_t j = 0; j < u; j++) {
            int64_t d = (ugain[j] - loss) + row[j];
            CONSIDER(d, (uweight[j] <= limit) & ((afree & ufree[j]) | (d > threshold)),
                     first + uitem[j]);
        }
    }
#undef CONSIDER

    free(scratch);
    *best_delta = best;
    return count;
}
