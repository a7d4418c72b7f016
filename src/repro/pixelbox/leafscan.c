/* Leaf pixelization for the production kernel: the XOR-scan fill.
 *
 * The same program as the "scan" mode of
 * repro.pixelbox.vectorized.stacked_leaf_counts, one leaf at a time over
 * its own unpadded grid.  Pixel (x, y) of a leaf lies inside a polygon
 * when an odd number of its vertical edges (xe, lo, hi) satisfy
 * xe <= x and lo <= y < hi.  Every edge, clipped to the leaf, toggles
 * two cells of its column (rows lo and hi); an XOR-scan along y expands
 * the spans and one along x resolves the ray-cast parity.  A grid row is
 * packed into 64-bit words, so the x-scan is a word-wise prefix XOR.
 *
 * Only intersections are counted: the production policy derives unions
 * from |p| + |q| - |p n q|.
 *
 * Single-threaded and reentrant: no statics, one scratch buffer per call.
 * Returns 0, or one of the LEAFSCAN_E* codes below; nothing is written
 * outside `out` and the scratch buffer.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LEAFSCAN_EEXTENT 1 /* a leaf with a non-positive or too large extent */
#define LEAFSCAN_ENOMEM 2  /* the scratch buffer could not be allocated */
#define LEAFSCAN_EINDEX 3  /* an owner row or an edge span out of range */

typedef struct {
    const int32_t *xs;
    const int32_t *lo;
    const int32_t *hi;
    const int64_t *offsets; /* rows + 1 entries */
    int64_t rows;
    int64_t edges;
} side_t;

static int64_t clip(int64_t v, int64_t hi)
{
    return v < 0 ? 0 : (v > hi ? hi : v);
}

/* Toggle the clipped edge events of polygon `row` into an h x nw grid. */
static int toggle_edges(const side_t *s, int64_t row, const int64_t *leaf,
                        int64_t w, int64_t h, int64_t nw, uint64_t *grid)
{
    if (row < 0 || row >= s->rows)
        return LEAFSCAN_EINDEX;
    int64_t a = s->offsets[row], b = s->offsets[row + 1];
    if (a < 0 || b < a || b > s->edges)
        return LEAFSCAN_EINDEX;
    for (int64_t e = a; e < b; e++) {
        int64_t col = clip((int64_t)s->xs[e] - leaf[0], w);
        int64_t y0 = clip((int64_t)s->lo[e] - leaf[1], h);
        int64_t y1 = clip((int64_t)s->hi[e] - leaf[1], h);
        if (y0 >= y1 || col >= w)
            continue;
        uint64_t bit = (uint64_t)1 << (col & 63);
        grid[y0 * nw + (col >> 6)] ^= bit;
        if (y1 < h) /* row h lies outside the leaf */
            grid[y1 * nw + (col >> 6)] ^= bit;
    }
    return 0;
}

/* Expand the toggles into inside masks: XOR-scan along y, then along x. */
static void fill(uint64_t *grid, int64_t h, int64_t nw)
{
    for (int64_t y = 1; y < h; y++)
        for (int64_t k = 0; k < nw; k++)
            grid[y * nw + k] ^= grid[(y - 1) * nw + k];
    for (int64_t y = 0; y < h; y++) {
        uint64_t carry = 0; /* parity of every bit left of this word */
        for (int64_t k = 0; k < nw; k++) {
            uint64_t v = grid[y * nw + k];
            v ^= v << 1;
            v ^= v << 2;
            v ^= v << 4;
            v ^= v << 8;
            v ^= v << 16;
            v ^= v << 32;
            v ^= carry;
            carry = (v >> 63) ? ~(uint64_t)0 : 0;
            grid[y * nw + k] = v;
        }
    }
}

int leafscan_intersections(
    int64_t n, const int64_t *leaves, const int64_t *owner,
    const int32_t *p_xs, const int32_t *p_lo, const int32_t *p_hi,
    const int64_t *p_offsets, int64_t p_rows, int64_t p_edges,
    const int32_t *q_xs, const int32_t *q_lo, const int32_t *q_hi,
    const int64_t *q_offsets, int64_t q_rows, int64_t q_edges,
    int64_t *out)
{
    const side_t p = {p_xs, p_lo, p_hi, p_offsets, p_rows, p_edges};
    const side_t q = {q_xs, q_lo, q_hi, q_offsets, q_rows, q_edges};

    /* Size one scratch buffer for the largest leaf, checking extents. */
    int64_t max_words = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *leaf = leaves + 4 * i;
        int64_t w = leaf[2] - leaf[0], h = leaf[3] - leaf[1];
        if (w <= 0 || h <= 0 || w > ((int64_t)1 << 40) || h > ((int64_t)1 << 40))
            return LEAFSCAN_EEXTENT;
        int64_t nw = (w + 63) >> 6;
        if (h > (INT64_MAX / 16) / nw)
            return LEAFSCAN_EEXTENT;
        if (h * nw > max_words)
            max_words = h * nw;
    }
    if (n == 0)
        return 0;
    if ((uint64_t)max_words > SIZE_MAX / (2 * sizeof(uint64_t)))
        return LEAFSCAN_ENOMEM;
    uint64_t *scratch = malloc((size_t)max_words * 2 * sizeof(uint64_t));
    if (scratch == NULL)
        return LEAFSCAN_ENOMEM;

    int status = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *leaf = leaves + 4 * i;
        int64_t w = leaf[2] - leaf[0], h = leaf[3] - leaf[1];
        int64_t nw = (w + 63) >> 6, words = h * nw;
        uint64_t *gp = scratch, *gq = scratch + words;
        memset(scratch, 0, (size_t)words * 2 * sizeof(uint64_t));
        status = toggle_edges(&p, owner[i], leaf, w, h, nw, gp);
        if (status == 0)
            status = toggle_edges(&q, owner[i], leaf, w, h, nw, gq);
        if (status != 0)
            break;
        fill(gp, h, nw);
        fill(gq, h, nw);
        /* Bits at x >= w carry the row's last parity: mask them off. */
        uint64_t tail = (w & 63) ? (((uint64_t)1 << (w & 63)) - 1) : ~(uint64_t)0;
        int64_t count = 0;
        for (int64_t y = 0; y < h; y++) {
            for (int64_t k = 0; k < nw; k++) {
                uint64_t both = gp[y * nw + k] & gq[y * nw + k];
                if (k == nw - 1)
                    both &= tail;
                count += __builtin_popcountll(both);
            }
        }
        out[i] = count;
    }
    free(scratch);
    return status;
}
