/* Sequential Algorithm M loops for the vector engine.
 *
 * Each function is a statement-for-statement port of one of
 * FastCompressionChain's per-mode run loops (repro/core/fast_chain.py):
 *
 *   edge        <- FastCompressionChain.run          (compression)
 *   edge_site   <- FastCompressionChain._run_edge_site  (bridging)
 *   edge_color  <- FastCompressionChain._run_edge_color (separation)
 *
 * They read the same BatchedMoveDraws arrays, the same 256-entry move
 * tables and the same acceptance floats, and compare `uniform >= table[...]`
 * in double precision exactly as the Python loops do, so trajectories are
 * bit-identical.  A loop resolves `count` proposals in tape order and
 * returns how many it consumed: all of them, or fewer when an accepted
 * move lands in the guard band, in which case it stops right after that
 * move and sets counters[GUARD_HIT] so the driver re-centers the grid.
 *
 * Build: cc -O3 -shared -fPIC -o chain_loops.so chain_loops.c
 */

#include <stdint.h>

/* Each loop prefetches the position of the particle drawn this many
 * proposals ahead.  On large systems pos[] outgrows the L1 cache, and its
 * load heads every proposal's chain of dependent loads (position, then
 * the cells around it).  A prefetch is only a hint: results are the same
 * without it. */
#define PREFETCH_AHEAD 16
#ifdef __GNUC__
#define PREFETCH(address) __builtin_prefetch(address)
#else
#define PREFETCH(address) ((void)0)
#endif

/* Property "five neighbors": a particle with five occupied neighbors
 * never moves (repro.constants.FORBIDDEN_NEIGHBOR_COUNT). */
#define FORBIDDEN_NEIGHBOR_COUNT 5

/* Slots of the int64 counter array, in the order of
 * repro.core.vector_chain.COUNTERS.  Loops add to them. */
enum {
    TARGET_OCCUPIED,
    FIVE_NEIGHBORS,
    PROPERTY_FAILED,
    METROPOLIS_REJECTED,
    SWAP_TARGET_EMPTY,
    SWAP_SAME_COLOR,
    SWAP_REJECTED,
    MOVED,
    SWAPPED,
    EDGE_DELTA,
    SITE_DELTA,
    GUARD_HIT,
};

/* The grid window and move tables every loop reads. */
typedef struct {
    int64_t *pos;                     /* flat cell of each particle */
    int8_t *cells;                    /* occupancy plane, 0/1 */
    const int64_t *direction_offsets; /* 6 */
    const int64_t *ring_offsets;      /* 6 x 8 */
    int64_t width, height, guard;
    const uint8_t *nb_before;         /* 256 */
    const uint8_t *nb_after;          /* 256 */
    const uint8_t *property_ok;       /* 256 */
} grid_t;

static inline int in_guard_band(const grid_t *g, int64_t flat)
{
    int64_t y = flat / g->width;
    int64_t x = flat % g->width;
    return x < g->guard || x >= g->width - g->guard
        || y < g->guard || y >= g->height - g->guard;
}

static inline unsigned ring_mask(const int8_t *cells, int64_t source, const int64_t *ring)
{
    return (unsigned)cells[source + ring[0]]
         | (unsigned)cells[source + ring[1]] << 1
         | (unsigned)cells[source + ring[2]] << 2
         | (unsigned)cells[source + ring[3]] << 3
         | (unsigned)cells[source + ring[4]] << 4
         | (unsigned)cells[source + ring[5]] << 5
         | (unsigned)cells[source + ring[6]] << 6
         | (unsigned)cells[source + ring[7]] << 7;
}

int64_t edge(
    int64_t count, const int64_t *indices, const int64_t *directions,
    const double *uniforms, const grid_t *g, const double *acceptance,
    int64_t *counters)
{
    int64_t *pos = g->pos;
    int8_t *cells = g->cells;
    int64_t occupied_rejects = 0, five_rejects = 0, property_rejects = 0;
    int64_t metropolis_rejects = 0, accepted = 0, edges = 0;
    int64_t consumed = count;
    for (int64_t cursor = 0; cursor < count; cursor++) {
        if (cursor + PREFETCH_AHEAD < count)
            PREFETCH(pos + indices[cursor + PREFETCH_AHEAD]);
        int64_t index = indices[cursor];
        int64_t source = pos[index];
        int64_t direction = directions[cursor];
        int64_t target = source + g->direction_offsets[direction];
        if (cells[target]) {
            occupied_rejects++;
            continue;
        }
        unsigned mask = ring_mask(cells, source, g->ring_offsets + 8 * direction);
        int neighbors_before = g->nb_before[mask];
        if (neighbors_before == FORBIDDEN_NEIGHBOR_COUNT) {
            five_rejects++;
            continue;
        }
        if (!g->property_ok[mask]) {
            property_rejects++;
            continue;
        }
        int delta = g->nb_after[mask] - neighbors_before;
        if (uniforms[cursor] >= acceptance[delta + 6]) {
            metropolis_rejects++;
            continue;
        }
        cells[source] = 0;
        cells[target] = 1;
        pos[index] = target;
        edges += delta;
        accepted++;
        if (in_guard_band(g, target)) {
            consumed = cursor + 1;
            counters[GUARD_HIT] = 1;
            break;
        }
    }
    counters[TARGET_OCCUPIED] += occupied_rejects;
    counters[FIVE_NEIGHBORS] += five_rejects;
    counters[PROPERTY_FAILED] += property_rejects;
    counters[METROPOLIS_REJECTED] += metropolis_rejects;
    counters[MOVED] += accepted;
    counters[EDGE_DELTA] += edges;
    return consumed;
}

int64_t edge_site(
    int64_t count, const int64_t *indices, const int64_t *directions,
    const double *uniforms, const grid_t *g, const uint8_t *site,
    const double *site_rows, int64_t *counters)
{
    int64_t *pos = g->pos;
    int8_t *cells = g->cells;
    int64_t occupied_rejects = 0, five_rejects = 0, property_rejects = 0;
    int64_t metropolis_rejects = 0, accepted = 0, edges = 0, sites = 0;
    int64_t consumed = count;
    for (int64_t cursor = 0; cursor < count; cursor++) {
        if (cursor + PREFETCH_AHEAD < count)
            PREFETCH(pos + indices[cursor + PREFETCH_AHEAD]);
        int64_t index = indices[cursor];
        int64_t source = pos[index];
        int64_t direction = directions[cursor];
        int64_t target = source + g->direction_offsets[direction];
        if (cells[target]) {
            occupied_rejects++;
            continue;
        }
        unsigned mask = ring_mask(cells, source, g->ring_offsets + 8 * direction);
        int neighbors_before = g->nb_before[mask];
        if (neighbors_before == FORBIDDEN_NEIGHBOR_COUNT) {
            five_rejects++;
            continue;
        }
        if (!g->property_ok[mask]) {
            property_rejects++;
            continue;
        }
        int delta = g->nb_after[mask] - neighbors_before;
        int site_delta = (int)site[target] - (int)site[source];
        if (uniforms[cursor] >= site_rows[(site_delta + 1) * 13 + delta + 6]) {
            metropolis_rejects++;
            continue;
        }
        cells[source] = 0;
        cells[target] = 1;
        pos[index] = target;
        edges += delta;
        sites += site_delta;
        accepted++;
        if (in_guard_band(g, target)) {
            consumed = cursor + 1;
            counters[GUARD_HIT] = 1;
            break;
        }
    }
    counters[TARGET_OCCUPIED] += occupied_rejects;
    counters[FIVE_NEIGHBORS] += five_rejects;
    counters[PROPERTY_FAILED] += property_rejects;
    counters[METROPOLIS_REJECTED] += metropolis_rejects;
    counters[MOVED] += accepted;
    counters[EDGE_DELTA] += edges;
    counters[SITE_DELTA] += sites;
    return consumed;
}

int64_t edge_color(
    int64_t count, const int64_t *indices, const int64_t *directions,
    const double *uniforms, const double *uniforms2, const grid_t *g,
    uint8_t *plane, const double *movement_rows, const double *swap_acceptance,
    double swap_probability, int64_t *counters)
{
    int64_t *pos = g->pos;
    int8_t *cells = g->cells;
    const int64_t *direction_offsets = g->direction_offsets;
    int64_t occupied_rejects = 0, five_rejects = 0, property_rejects = 0;
    int64_t metropolis_rejects = 0, swap_empty = 0, swap_same = 0;
    int64_t swap_rejects = 0, accepted = 0, swaps = 0, edges = 0;
    int64_t consumed = count;
    for (int64_t cursor = 0; cursor < count; cursor++) {
        if (cursor + PREFETCH_AHEAD < count)
            PREFETCH(pos + indices[cursor + PREFETCH_AHEAD]);
        int64_t index = indices[cursor];
        int64_t source = pos[index];
        int64_t direction = directions[cursor];
        int64_t target = source + direction_offsets[direction];
        if (uniforms2[cursor] < swap_probability) {
            /* Color-swap attempt: occupancy never changes. */
            uint8_t target_color = plane[target];
            if (!target_color) {
                swap_empty++;
                continue;
            }
            uint8_t source_color = plane[source];
            if (source_color == target_color) {
                swap_same++;
                continue;
            }
            int before = 0;
            int after = -2;
            for (int k = 0; k < 6; k++) {
                uint8_t around_source = plane[source + direction_offsets[k]];
                uint8_t around_target = plane[target + direction_offsets[k]];
                if (around_source == source_color)
                    before++;
                else if (around_source == target_color)
                    after++;
                if (around_target == target_color)
                    before++;
                else if (around_target == source_color)
                    after++;
            }
            if (uniforms[cursor] >= swap_acceptance[after - before + 10]) {
                swap_rejects++;
                continue;
            }
            plane[source] = target_color;
            plane[target] = source_color;
            swaps++;
            continue;
        }
        if (cells[target]) {
            occupied_rejects++;
            continue;
        }
        unsigned mask = ring_mask(cells, source, g->ring_offsets + 8 * direction);
        int neighbors_before = g->nb_before[mask];
        if (neighbors_before == FORBIDDEN_NEIGHBOR_COUNT) {
            five_rejects++;
            continue;
        }
        if (!g->property_ok[mask]) {
            property_rejects++;
            continue;
        }
        int delta = g->nb_after[mask] - neighbors_before;
        uint8_t color = plane[source];
        int a_before = 0;
        int a_after = -1; /* the mover itself is always adjacent to the target */
        for (int k = 0; k < 6; k++) {
            if (plane[source + direction_offsets[k]] == color)
                a_before++;
            if (plane[target + direction_offsets[k]] == color)
                a_after++;
        }
        if (uniforms[cursor] >= movement_rows[(a_after - a_before + 5) * 13 + delta + 6]) {
            metropolis_rejects++;
            continue;
        }
        cells[source] = 0;
        cells[target] = 1;
        plane[target] = color;
        plane[source] = 0;
        pos[index] = target;
        edges += delta;
        accepted++;
        if (in_guard_band(g, target)) {
            consumed = cursor + 1;
            counters[GUARD_HIT] = 1;
            break;
        }
    }
    counters[TARGET_OCCUPIED] += occupied_rejects;
    counters[FIVE_NEIGHBORS] += five_rejects;
    counters[PROPERTY_FAILED] += property_rejects;
    counters[METROPOLIS_REJECTED] += metropolis_rejects;
    counters[SWAP_TARGET_EMPTY] += swap_empty;
    counters[SWAP_SAME_COLOR] += swap_same;
    counters[SWAP_REJECTED] += swap_rejects;
    counters[MOVED] += accepted;
    counters[SWAPPED] += swaps;
    counters[EDGE_DELTA] += edges;
    return consumed;
}
