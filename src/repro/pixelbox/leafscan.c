/* The production kernel's chunk: sampling boxes and leaves in one call.
 *
 * pixelbox_chunk runs one chunk of pixelbox.kernel.BATCH_POLICY (the
 * PIXELBOX variant, unions derived from |p| + |q| - |p n q|) the way the
 * paper's kernel runs one pair batch (Algorithm 1, §3.1-§3.3):
 *
 *   - skip-routing: a start box of at most skip_dim x skip_dim pixels is
 *     pixelized whole;
 *   - every other start box is subdivided depth first on an explicit
 *     stack: a box of fewer than `threshold` pixels (or of one pixel) is
 *     a leaf; any other box is cut into nx x ny children at
 *     x0 + i * w / nx, each non-empty child is classified against both
 *     polygons (Lemma 1), and a child continues when neither side is
 *     OUTSIDE and one side is HOVER.  A child INSIDE both adds its area;
 *   - a leaf is pixelized by the XOR-scan fill below.
 *
 * The boxes visited are those of the level-synchronous NumPy planner
 * (pixelbox.vectorized.plan_levels + stacked_leaf_counts), and every
 * counter is a sum over them, so visiting them in another order returns
 * the same areas and counters.
 *
 * Leaf pixelization: pixel (x, y) of a leaf lies inside a polygon when
 * an odd number of its vertical edges (xe, lo, hi) satisfy xe <= x and
 * lo <= y < hi.  Every edge, clipped to the leaf, toggles two cells of
 * its column (rows lo and hi); an XOR-scan along y expands the spans and
 * one along x resolves the ray-cast parity.  A grid row is packed into
 * 64-bit words, so the x-scan is a word-wise prefix XOR.
 *
 * Single-threaded and reentrant: no statics, one scratch allocation per
 * call, sized before any work from the boxes, the threshold and the
 * grid.  Returns 0, or one of the PIXELBOX_E* codes below; nothing is
 * written outside `inter`, `counters` and the scratch.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PIXELBOX_EEXTENT 1 /* a start box with a non-positive or too large extent */
#define PIXELBOX_ENOMEM 2  /* the scratch could not be allocated */
#define PIXELBOX_EINDEX 3  /* an owner row or an edge span out of range */
#define PIXELBOX_EDEPTH 4  /* a subdivision deeper than MAX_DEPTH levels */

/* Start boxes come from int32 coordinates, so a partition at least
 * halves both extents of a box when nx, ny >= 2 and no tree is deeper
 * than 33 levels.  A deeper one can only come from a grid with ny == 1,
 * whose 1-pixel-wide boxes partition into themselves forever. */
#define MAX_DEPTH 64
#define MAX_EXTENT ((int64_t)1 << 32)
#define MAX_PIXELS ((int64_t)1 << 62)
#define MAX_CELLS ((int64_t)1 << 20)

enum { OUTSIDE = 0, HOVER = 1, INSIDE = 2 };

/* Counter slots, in pixelbox.common.KernelStats field order. */
enum {
    C_PAIRS, C_POPS, C_PARTITIONS, C_CLASSIFIED, C_DECIDED,
    C_LEAVES, C_PIXEL_TESTS, C_BATCHED, C_FALLBACK, N_COUNTERS
};

typedef struct {
    const int32_t *xs, *lo, *hi;   /* vertical edges (x, y_lo, y_hi) */
    const int32_t *ys, *xlo, *xhi; /* horizontal edges (y, x_lo, x_hi) */
    const int64_t *offsets;        /* rows + 1 entries */
    int64_t rows;
    int64_t edges;
} side_t;

typedef struct {
    int64_t x0, y0, x1, y1;
    int64_t depth;
} box_t;

static int64_t clip(int64_t v, int64_t hi)
{
    return v < 0 ? 0 : (v > hi ? hi : v);
}

/* Row `row`'s edge span [*a, *b), or PIXELBOX_EINDEX. */
static int span(const side_t *s, int64_t row, int64_t *a, int64_t *b)
{
    if (row < 0 || row >= s->rows)
        return PIXELBOX_EINDEX;
    *a = s->offsets[row];
    *b = s->offsets[row + 1];
    if (*a < 0 || *b < *a || *b > s->edges)
        return PIXELBOX_EINDEX;
    return 0;
}

/* Toggle the clipped edge events of edges [a, b) into an h x nw grid
 * whose cell (0, 0) is pixel (x0, y0). */
static void toggle_edges(const side_t *s, int64_t a, int64_t b, int64_t x0,
                         int64_t y0, int64_t w, int64_t h, int64_t nw,
                         uint64_t *grid)
{
    for (int64_t e = a; e < b; e++) {
        int64_t col = clip((int64_t)s->xs[e] - x0, w);
        int64_t r0 = clip((int64_t)s->lo[e] - y0, h);
        int64_t r1 = clip((int64_t)s->hi[e] - y0, h);
        if (r0 >= r1 || col >= w)
            continue;
        uint64_t bit = (uint64_t)1 << (col & 63);
        grid[r0 * nw + (col >> 6)] ^= bit;
        if (r1 < h) /* row h lies outside the leaf */
            grid[r1 * nw + (col >> 6)] ^= bit;
    }
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

/* Pixels of the box inside both polygons; `scratch` holds two grids. */
static int64_t leaf_count(const side_t *p, int64_t pa, int64_t pb,
                          const side_t *q, int64_t qa, int64_t qb,
                          const box_t *box, uint64_t *scratch)
{
    int64_t w = box->x1 - box->x0, h = box->y1 - box->y0;
    int64_t nw = (w + 63) >> 6, words = h * nw;
    uint64_t *gp = scratch, *gq = scratch + words;
    memset(scratch, 0, (size_t)words * 2 * sizeof(uint64_t));
    toggle_edges(p, pa, pb, box->x0, box->y0, w, h, nw, gp);
    toggle_edges(q, qa, qb, box->x0, box->y0, w, h, nw, gq);
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
    return count;
}

/* The cut grid of one parent: children (ix, iy) span
 * [cx[ix], cx[ix + 1]) x [cy[iy], cy[iy + 1]), with centers mx, my. */
typedef struct {
    int64_t x0, y0, w, h, nx, ny;
    int64_t *cx, *cy, *mx, *my;
} cuts_t;

/* Lemma-1 positions of every child of one parent against edges [a, b),
 * into pos[iy * nx + ix]: pixelbox.vectorized._level_positions for one
 * parent.  A vertical edge crosses the open interior of children in one
 * column (found by inverting the cut) and a run of rows; a horizontal
 * edge the transpose.  For the center parity, an edge straddling a
 * child row's center line toggles the suffix of columns whose center
 * lies at or right of it; a prefix XOR per row resolves the parity.
 * `hover` and `parity` are nx * ny scratch cells. */
static void classify_children(const side_t *s, int64_t a, int64_t b,
                              const cuts_t *g, uint8_t *hover,
                              uint8_t *parity, uint8_t *pos)
{
    const int64_t nx = g->nx, ny = g->ny, w = g->w, h = g->h;
    memset(hover, 0, (size_t)(nx * ny));
    memset(parity, 0, (size_t)(nx * ny));
    for (int64_t e = a; e < b; e++) {
        const int64_t xe = s->xs[e], lo = s->lo[e], hi = s->hi[e];
        /* hover marks from the vertical edge */
        int64_t c = xe - g->x0;
        if (c > 0 && c < w) {
            int64_t ci = ((c + 1) * nx - 1) / w;
            int64_t r0 = clip(lo - g->y0, h), r1 = clip(hi - g->y0, h);
            if ((ci * w) / nx != c && r1 > r0) {
                int64_t ba = ((r0 + 1) * ny - 1) / h, bb = (r1 * ny - 1) / h;
                for (int64_t iy = ba; iy <= bb; iy++)
                    hover[iy * nx + ci] = 1;
            }
        }
        /* hover marks from the horizontal edge */
        int64_t d = (int64_t)s->ys[e] - g->y0;
        if (d > 0 && d < h) {
            int64_t bi = ((d + 1) * ny - 1) / h;
            int64_t c0 = clip((int64_t)s->xlo[e] - g->x0, w);
            int64_t c1 = clip((int64_t)s->xhi[e] - g->x0, w);
            if ((bi * h) / ny != d && c1 > c0) {
                int64_t ia = ((c0 + 1) * nx - 1) / w, ib = (c1 * nx - 1) / w;
                for (int64_t ix = ia; ix <= ib; ix++)
                    hover[bi * nx + ix] = 1;
            }
        }
        /* center parity: the columns whose center is >= xe */
        int64_t first = 0;
        while (first < nx && g->mx[first] < xe)
            first++;
        if (first == nx)
            continue;
        for (int64_t iy = 0; iy < ny; iy++)
            if (lo <= g->my[iy] && g->my[iy] < hi)
                parity[iy * nx + first] ^= 1;
    }
    for (int64_t iy = 0; iy < ny; iy++) {
        uint8_t inside = 0;
        for (int64_t ix = 0; ix < nx; ix++) {
            int64_t k = iy * nx + ix;
            inside ^= parity[k];
            pos[k] = hover[k] ? HOVER : (inside ? INSIDE : OUTSIDE);
        }
    }
}

int pixelbox_chunk(
    int64_t m, const int64_t *boxes, const uint8_t *has_box, int64_t row_base,
    int64_t threshold, int64_t nx, int64_t ny, int64_t skip_dim,
    const int32_t *p_xs, const int32_t *p_lo, const int32_t *p_hi,
    const int32_t *p_ys, const int32_t *p_xlo, const int32_t *p_xhi,
    const int64_t *p_offsets, int64_t p_rows, int64_t p_edges,
    const int32_t *q_xs, const int32_t *q_lo, const int32_t *q_hi,
    const int32_t *q_ys, const int32_t *q_xlo, const int32_t *q_xhi,
    const int64_t *q_offsets, int64_t q_rows, int64_t q_edges,
    int64_t *inter, int64_t *counters)
{
    const side_t p = {p_xs, p_lo, p_hi, p_ys, p_xlo, p_xhi, p_offsets, p_rows, p_edges};
    const side_t q = {q_xs, q_lo, q_hi, q_ys, q_xlo, q_xhi, q_offsets, q_rows, q_edges};
    memset(counters, 0, N_COUNTERS * sizeof(int64_t));
    if (m < 0 || threshold < 1 || nx < 1 || ny < 1 || nx > MAX_CELLS / ny)
        return PIXELBOX_EEXTENT;
    if (row_base < 0 || row_base > INT64_MAX - m)
        return PIXELBOX_EINDEX;
    const int64_t cells = nx * ny;

    /* Check every routed pair, and size the leaf scratch: a skip-routed
     * box is one leaf; a planner leaf has fewer than `threshold` pixels
     * (or one) and lies inside its start box. */
    int64_t max_words = 0, planned = 0;
    for (int64_t i = 0; i < m; i++) {
        inter[i] = 0;
        if (!has_box[i])
            continue;
        const int64_t *b = boxes + 4 * i;
        for (int k = 0; k < 4; k++)
            if (b[k] < -MAX_EXTENT || b[k] > MAX_EXTENT)
                return PIXELBOX_EEXTENT;
        int64_t w = b[2] - b[0], h = b[3] - b[1], a, z;
        if (w <= 0 || h <= 0 || w > MAX_EXTENT || h > MAX_EXTENT
            || h > MAX_PIXELS / w)
            return PIXELBOX_EEXTENT;
        if (span(&p, row_base + i, &a, &z) || span(&q, row_base + i, &a, &z))
            return PIXELBOX_EINDEX;
        int64_t words = h * ((w + 63) >> 6);
        if (skip_dim < 0 || w > skip_dim || h > skip_dim) {
            planned = 1;
            if (words > threshold)
                words = threshold;
        }
        if (words > max_words)
            max_words = words;
    }
    if ((uint64_t)max_words > SIZE_MAX / (4 * sizeof(uint64_t)))
        return PIXELBOX_ENOMEM;

    /* The scratch, allocated once: the leaf grids and, when a pair
     * subdivides, the box stack, the cuts and four cell grids; each its
     * own block, so a sanitizer build sees an overrun of any of them. */
    const int64_t stack_cap = planned ? MAX_DEPTH * cells + 1 : 1;
    uint64_t *scratch = malloc((size_t)(max_words + 1) * 2 * sizeof(uint64_t));
    box_t *stack = malloc((size_t)stack_cap * sizeof(box_t));
    int64_t *cuts = malloc((size_t)(2 * (nx + 1) + 2 * (ny + 1)) * sizeof(int64_t));
    uint8_t *hover = malloc((size_t)(4 * cells));
    int status = 0;
    if (scratch == NULL || stack == NULL || cuts == NULL || hover == NULL) {
        free(scratch);
        free(stack);
        free(cuts);
        free(hover);
        return PIXELBOX_ENOMEM;
    }
    cuts_t g = {.nx = nx, .ny = ny, .cx = cuts, .mx = cuts + nx + 1,
                .cy = cuts + 2 * (nx + 1), .my = cuts + 2 * (nx + 1) + ny + 1};
    uint8_t *parity = hover + cells, *pos_p = parity + cells, *pos_q = pos_p + cells;

    counters[C_PAIRS] = m;
    for (int64_t i = 0; i < m && status == 0; i++) {
        if (!has_box[i])
            continue;
        int64_t pa, pb, qa, qb;
        span(&p, row_base + i, &pa, &pb);
        span(&q, row_base + i, &qa, &qb);
        const int64_t *b = boxes + 4 * i;
        box_t start = {b[0], b[1], b[2], b[3], 0};
        int64_t w = b[2] - b[0], h = b[3] - b[1];
        if (skip_dim >= 0 && w <= skip_dim && h <= skip_dim) {
            /* Skip-routed: one popped sampling box, pixelized whole. */
            counters[C_BATCHED] += 1;
            counters[C_POPS] += 1;
            counters[C_LEAVES] += 1;
            counters[C_PIXEL_TESTS] += 2 * w * h;
            inter[i] = leaf_count(&p, pa, pb, &q, qa, qb, &start, scratch);
            continue;
        }
        if (skip_dim >= 0)
            counters[C_FALLBACK] += 1;
        int64_t acc = 0, top = 0;
        stack[top++] = start;
        while (top > 0) {
            box_t box = stack[--top];
            counters[C_POPS] += 1;
            w = box.x1 - box.x0;
            h = box.y1 - box.y0;
            if (w * h < threshold || w * h == 1) {
                counters[C_LEAVES] += 1;
                counters[C_PIXEL_TESTS] += 2 * w * h;
                acc += leaf_count(&p, pa, pb, &q, qa, qb, &box, scratch);
                continue;
            }
            if (box.depth == MAX_DEPTH) {
                status = PIXELBOX_EDEPTH;
                break;
            }
            counters[C_PARTITIONS] += 1;
            g.x0 = box.x0;
            g.y0 = box.y0;
            g.w = w;
            g.h = h;
            for (int64_t k = 0; k <= nx; k++)
                g.cx[k] = box.x0 + k * w / nx;
            for (int64_t k = 0; k <= ny; k++)
                g.cy[k] = box.y0 + k * h / ny;
            for (int64_t k = 0; k < nx; k++)
                g.mx[k] = g.cx[k] + (g.cx[k + 1] - g.cx[k]) / 2;
            for (int64_t k = 0; k < ny; k++)
                g.my[k] = g.cy[k] + (g.cy[k + 1] - g.cy[k]) / 2;
            classify_children(&p, pa, pb, &g, hover, parity, pos_p);
            classify_children(&q, qa, qb, &g, hover, parity, pos_q);
            for (int64_t iy = 0; iy < ny; iy++) {
                if (g.cy[iy + 1] <= g.cy[iy])
                    continue;
                for (int64_t ix = 0; ix < nx; ix++) {
                    if (g.cx[ix + 1] <= g.cx[ix])
                        continue;
                    counters[C_CLASSIFIED] += 1;
                    int phi1 = pos_p[iy * nx + ix], phi2 = pos_q[iy * nx + ix];
                    box_t child = {g.cx[ix], g.cy[iy], g.cx[ix + 1], g.cy[iy + 1],
                                   box.depth + 1};
                    if (phi1 != OUTSIDE && phi2 != OUTSIDE
                        && (phi1 == HOVER || phi2 == HOVER)) {
                        stack[top++] = child;
                    } else {
                        counters[C_DECIDED] += 1;
                        if (phi1 == INSIDE && phi2 == INSIDE)
                            acc += (child.x1 - child.x0) * (child.y1 - child.y0);
                    }
                }
            }
        }
        inter[i] = acc;
    }
    free(scratch);
    free(stack);
    free(cuts);
    free(hover);
    return status;
}
