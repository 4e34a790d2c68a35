/* Sequential Algorithm M loop for the fast engine, and the draw tape it reads.
 *
 * `run_chain` is a statement-for-statement port of
 * FastCompressionChain._run_python (repro/core/fast_chain.py), the one
 * run loop of every kernel mode: compression ("edge"), bridging
 * ("edge_site") and separation ("edge_color").  The modes share the move
 * filter and differ only in the Metropolis weight, so one always-inlined
 * body takes the mode as a compile-time constant and `run_chain` calls it
 * once per mode: each call compiles to the loop of that mode alone.
 *
 * A second function, `flood`, is the breadth-first search behind
 * repro.core.fast_chain.start_invariants: connectivity and holes of a
 * start configuration, read off its occupancy plane.
 *
 * A third, `fill_tape`, draws one block of a repro.rng.BatchedMoveDraws
 * (or BatchedActivationDraws) tape, passed as its `tape_t` struct.  It
 * makes numpy's own draws in numpy's own order, with numpy's
 * bounded-integer algorithm, so the tape and the generator state after
 * it are the ones `Generator.integers` and `Generator.random` would have
 * produced.  One always-inlined fill body takes the draw source as a
 * compile-time constant: numpy's PCG64 stepped here, on a copy of its
 * state held in locals and written back once per fill, or any bit
 * generator through its `bitgen_t`, the C interface numpy documents for
 * extending numpy.random.
 *
 * `run_chain` reads its proposals off the tape struct from the cursor on
 * and, whenever the cursor reaches the end, refills exactly one block,
 * so a run is one call from Python and the generator never runs ahead of
 * the block holding the last position consumed.  For numpy's PCG64 that
 * refill defers the uniform lane: a proposal reads its uniform only when
 * it reaches the Metropolis filter (0.25% of them on a compressed disc
 * of 200,467 particles), so the refill saves the 128-bit state the lane
 * starts from, moves the generator past the lane with one jump of the
 * underlying LCG (state -> m^k state + inc (1 + m + ... + m^(k-1)), in
 * O(log k) multiply-adds; Brown 1994), and the loop draws a uniform on
 * first read, jumping a private copy of the lane state from the last
 * uniform it read.  `draw_deferred` draws the whole lane when Python
 * reads the tape, and leaves the generator alone.  The values are the
 * ones `Generator.random` would have drawn.  Every other source, and an
 * explicit `fill_tape`, draws the lane eagerly.  The loop reads the same
 * lanes, the same 256-entry move tables and the same acceptance floats
 * as the Python loop, and compares `uniform >= table[...]` in double
 * precision exactly as it does, so trajectories are bit-identical.  It
 * resolves `count` proposals in tape order and returns how many it
 * consumed: all of them, or fewer when an accepted move lands in the
 * guard band, in which case it stops right after that move and sets
 * counters[GUARD_HIT] so the driver re-centers the grid.
 *
 * Build: cc -O3 -shared -fPIC -o chain_loops.so chain_loops.c
 */

#include <stddef.h>
#include <stdint.h>

/* The loop prefetches the position of the particle drawn this many
 * proposals ahead.  On large systems pos[] outgrows the L1 cache, and its
 * load heads every proposal's chain of dependent loads (position, then
 * the cells around it).  A prefetch is only a hint: results are the same
 * without it. */
#define PREFETCH_AHEAD 16
#ifdef __GNUC__
#define PREFETCH(address) __builtin_prefetch(address)
#define ALWAYS_INLINE __attribute__((always_inline))
#else
#define PREFETCH(address) ((void)0)
#define ALWAYS_INLINE
#endif

/* Property "five neighbors": a particle with five occupied neighbors
 * never moves (repro.constants.FORBIDDEN_NEIGHBOR_COUNT). */
#define FORBIDDEN_NEIGHBOR_COUNT 5

/* Kernel modes, in the order of repro.core.kernels.KERNEL_MODES. */
enum { EDGE, EDGE_SITE, EDGE_COLOR };

/* Entries per row of an acceptance table: the edge deltas -6..6. */
#define EDGE_DELTAS 13

/* Slots of the int64 counter array, in the order of
 * repro.core.fast_chain.COUNTERS.  The loop adds to them. */
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

/* The grid window and move tables the loop reads. */
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

/* A deferred uniform lane (defined with the draw sources below) and the
 * read of a uniform that draws from it. */
typedef struct lane lane_t;
static inline double read_uniform(
    int deferred, const double *uniforms, lane_t *lane, int64_t cursor);

/* Resolve the `count` proposals of one tape span, whose lanes start at
 * `indices`, `directions`, `uniforms` and `uniforms2`, in kernel mode
 * `mode`; `mode` and `deferred` are compile-time constants at each call
 * site.  A `deferred` span draws its uniforms from `lane` and never
 * reads `uniforms`.  `plane` is the site plane (EDGE_SITE), the color
 * plane (EDGE_COLOR) or NULL; `uniforms2` and `swap_acceptance` are read
 * in EDGE_COLOR only.  `rows` is the acceptance table, one row of
 * EDGE_DELTAS entries per value of the mode's auxiliary delta: a single
 * row for EDGE, the site delta + 1 for EDGE_SITE, the same-color delta
 * + 5 for EDGE_COLOR. */
static inline ALWAYS_INLINE int64_t run_mode(
    int mode, int deferred, int64_t count, const int64_t *indices,
    const int64_t *directions, const double *uniforms, lane_t *lane,
    const double *uniforms2, const grid_t *g, uint8_t *plane, const double *rows,
    const double *swap_acceptance, double swap_probability, int64_t *counters)
{
    int64_t *pos = g->pos;
    int8_t *cells = g->cells;
    const int64_t *direction_offsets = g->direction_offsets;
    int64_t occupied_rejects = 0, five_rejects = 0, property_rejects = 0;
    int64_t metropolis_rejects = 0, swap_empty = 0, swap_same = 0;
    int64_t swap_rejects = 0, accepted = 0, swaps = 0, edges = 0, sites = 0;
    int64_t consumed = count;
    const double *row = rows; /* EDGE keeps the single row */
    for (int64_t cursor = 0; cursor < count; cursor++) {
        if (cursor + PREFETCH_AHEAD < count)
            PREFETCH(pos + indices[cursor + PREFETCH_AHEAD]);
        int64_t index = indices[cursor];
        int64_t source = pos[index];
        int64_t direction = directions[cursor];
        int64_t target = source + direction_offsets[direction];
        if (mode == EDGE_COLOR && uniforms2[cursor] < swap_probability) {
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
            if (read_uniform(deferred, uniforms, lane, cursor)
                >= swap_acceptance[after - before + 10]) {
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
        int site_delta = 0;
        uint8_t color = 0;
        if (mode == EDGE_SITE) {
            site_delta = (int)plane[target] - (int)plane[source];
            row = rows + (site_delta + 1) * EDGE_DELTAS;
        } else if (mode == EDGE_COLOR) {
            color = plane[source];
            int a_before = 0;
            int a_after = -1; /* the mover itself is always adjacent to the target */
            for (int k = 0; k < 6; k++) {
                if (plane[source + direction_offsets[k]] == color)
                    a_before++;
                if (plane[target + direction_offsets[k]] == color)
                    a_after++;
            }
            row = rows + (a_after - a_before + 5) * EDGE_DELTAS;
        }
        if (read_uniform(deferred, uniforms, lane, cursor) >= row[delta + 6]) {
            metropolis_rejects++;
            continue;
        }
        cells[source] = 0;
        cells[target] = 1;
        pos[index] = target;
        edges += delta;
        accepted++;
        if (mode == EDGE_SITE) {
            sites += site_delta;
        } else if (mode == EDGE_COLOR) {
            plane[target] = color;
            plane[source] = 0;
        }
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
    counters[SITE_DELTA] += sites;
    return consumed;
}

/* Mirror of `bitgen_t` in numpy's random/bitgen.h: the generator state and
 * its draw functions, as `Generator.bit_generator.ctypes.bit_generator`
 * points to it. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* Draw sources of a tape: numpy's `bitgen_t` function pointers, which
 * serve every bit generator, or numpy's PCG64 inlined.  The Python side
 * picks PCG64 only for a `numpy.random.PCG64` whose state it has read
 * through `bit_generator.ctypes.state_address` (the layout below) and
 * found equal to `bit_generator.state`. */
enum { BITGEN, PCG64 };

/* Mirror of repro.core._native.Tape: a BatchedMoveDraws (or
 * BatchedActivationDraws) tape.  The lanes hold one block;
 * `indices` is NULL on the activation tape, `uniforms2` unless
 * lanes == 2.  Positions [cursor, size) are drawn and unread.  While
 * `deferred` is set, the uniform lane of the one block on the tape is
 * not written yet: uniform i is the double of the PCG64 state i + 1
 * steps after `lane_state`, stepped with increment `lane_inc` (both
 * 128-bit, low word first). */
typedef struct {
    bitgen_t *bitgen;
    int64_t source;
    int64_t n, block, lanes;
    int64_t *indices;
    int64_t *directions;
    double *uniforms;
    double *uniforms2;
    int64_t cursor, size;
    int64_t deferred;
    uint64_t lane_state[2];
    uint64_t lane_inc[2];
} tape_t;

#ifdef __SIZEOF_INT128__
/* numpy's PCG64 state (random/src/pcg64/pcg64.h, with 128-bit integers),
 * as `bitgen_t.state` points to it. */
typedef __uint128_t pcg128_t;
typedef struct {
    pcg128_t state;
    pcg128_t inc;
} pcg64_random_t;
typedef struct {
    pcg64_random_t *pcg_state;
    int has_uint32;
    uint32_t uinteger;
} pcg64_state;
#define PCG_MULTIPLIER_128 \
    (((pcg128_t)2549297995355413924ULL << 64) + 4865540595714422341ULL)

/* PCG64's XSL-RR output of a state. */
static inline ALWAYS_INLINE uint64_t pcg_output(pcg128_t state)
{
    uint64_t xored = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rotation = (unsigned)(state >> 122);
    return (xored >> rotation) | (xored << ((-rotation) & 63));
}
#endif

/* numpy's next_double of a 64-bit draw: its top 53 bits, scaled to [0, 1). */
static inline ALWAYS_INLINE double uint64_to_double(uint64_t draw)
{
    return (double)(draw >> 11) * (1.0 / 9007199254740992.0);
}

/* A fill's view of its draw source.  For PCG64 the generator state is
 * copied in at the start of a fill and written back once at its end, so
 * in between it lives in registers rather than behind numpy's pointer. */
typedef struct {
    bitgen_t *bitgen;
#ifdef __SIZEOF_INT128__
    pcg128_t state, inc;
#endif
    int has_uint32;
    uint32_t uinteger;
} source_t;

static inline ALWAYS_INLINE source_t load_source(int source, bitgen_t *bitgen)
{
    source_t s = {.bitgen = bitgen};
#ifdef __SIZEOF_INT128__
    if (source == PCG64) {
        const pcg64_state *numpy_state = bitgen->state;
        s.state = numpy_state->pcg_state->state;
        s.inc = numpy_state->pcg_state->inc;
        s.has_uint32 = numpy_state->has_uint32;
        s.uinteger = numpy_state->uinteger;
    }
#endif
    (void)source;
    return s;
}

static inline ALWAYS_INLINE void store_source(int source, const source_t *s)
{
#ifdef __SIZEOF_INT128__
    if (source == PCG64) {
        pcg64_state *numpy_state = s->bitgen->state;
        numpy_state->pcg_state->state = s->state;
        numpy_state->has_uint32 = s->has_uint32;
        numpy_state->uinteger = s->uinteger;
    }
#endif
    (void)source;
    (void)s;
}

/* numpy's next_uint64; for PCG64, pcg64_random_r: one LCG step of the
 * 128-bit state, then the XSL-RR output of the new state. */
static inline ALWAYS_INLINE uint64_t next_uint64(int source, source_t *s)
{
#ifdef __SIZEOF_INT128__
    if (source == PCG64) {
        s->state = s->state * PCG_MULTIPLIER_128 + s->inc;
        return pcg_output(s->state);
    }
#endif
    (void)source;
    return s->bitgen->next_uint64(s->bitgen->state);
}

/* numpy's next_uint32; for PCG64, pcg64_next32: a 64-bit draw serves two
 * calls, the low half first and the high half buffered for the next. */
static inline ALWAYS_INLINE uint32_t next_uint32(int source, source_t *s)
{
    if (source == PCG64) {
        if (s->has_uint32) {
            s->has_uint32 = 0;
            return s->uinteger;
        }
        uint64_t next = next_uint64(source, s);
        s->has_uint32 = 1;
        s->uinteger = (uint32_t)(next >> 32);
        return (uint32_t)next;
    }
    return s->bitgen->next_uint32(s->bitgen->state);
}

/* numpy's next_double; for PCG64, the top 53 bits of a 64-bit draw. */
static inline ALWAYS_INLINE double next_double(int source, source_t *s)
{
    if (source == PCG64)
        return uint64_to_double(next_uint64(source, s));
    return s->bitgen->next_double(s->bitgen->state);
}

/* numpy's buffered_bounded_lemire_uint32: an integer uniform on [0, rng]
 * by Lemire's multiply-and-reject method, for 0 < rng < 0xFFFFFFFF. */
static inline ALWAYS_INLINE uint32_t bounded_lemire_uint32(int source, source_t *s, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)next_uint32(source, s) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next_uint32(source, s) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* `Generator.integers(0, rng + 1, size=count)` for rng <= 0xFFFFFFFF: the
 * 32-bit branch of numpy's random_bounded_uint64_fill.  A range of one
 * value draws nothing; the full 32-bit range takes next_uint32 as is. */
static inline ALWAYS_INLINE void fill_bounded(
    int source, source_t *s, uint32_t rng, int64_t count, int64_t *out)
{
    if (rng == 0) {
        for (int64_t i = 0; i < count; i++)
            out[i] = 0;
    } else if (rng == UINT32_MAX) {
        for (int64_t i = 0; i < count; i++)
            out[i] = next_uint32(source, s);
    } else {
        for (int64_t i = 0; i < count; i++)
            out[i] = bounded_lemire_uint32(source, s, rng);
    }
}

/* `Generator.random(count)`. */
static inline ALWAYS_INLINE void fill_uniform(int source, source_t *s, int64_t count, double *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = next_double(source, s);
}

/* Draw one block from the draw source `source`, a compile-time constant
 * at each call site, into the tape's lanes, in the order of
 * BatchedMoveDraws.refill: `block` particle indices on [0, n) (not on the
 * activation tape), `block` directions on [0, 6), `block` uniforms, and
 * with lanes == 2 `block` lane-2 uniforms. */
static inline ALWAYS_INLINE void fill_block(int source, tape_t *tape)
{
    source_t s = load_source(source, tape->bitgen);
    const int64_t block = tape->block;
    if (tape->indices)
        fill_bounded(source, &s, (uint32_t)(tape->n - 1), block, tape->indices);
    fill_bounded(source, &s, 5, block, tape->directions);
    fill_uniform(source, &s, block, tape->uniforms);
    if (tape->lanes == 2)
        fill_uniform(source, &s, block, tape->uniforms2);
    store_source(source, &s);
    tape->deferred = 0;
    tape->cursor = 0;
    tape->size = block;
}

/* Refill the tape with one block and return its size.  The tape and the
 * generator state after it are the ones numpy's `integers` and `random`
 * calls would have given.  The caller keeps 1 <= n <= 2^32 and holds the
 * generator's lock. */
int64_t fill_tape(tape_t *tape)
{
#ifdef __SIZEOF_INT128__
    if (tape->source == PCG64) {
        fill_block(PCG64, tape);
        return tape->size;
    }
#endif
    fill_block(BITGEN, tape);
    return tape->size;
}

#ifdef __SIZEOF_INT128__
/* Jumps of the PCG64 LCG.  k steps of state -> m state + inc are one
 * affine map, state -> m^k state + inc (1 + m + ... + m^(k-1)), so the
 * state k steps on costs O(log k) multiply-adds (F. Brown, "Random
 * number generation with arbitrary strides", 1994). */
typedef struct {
    pcg128_t mult, plus;
} jump_t;

/* Gaps up to SHORT_GAPS take one multiply-add from a table. */
#define SHORT_GAP_BITS 4
#define SHORT_GAPS (1 << SHORT_GAP_BITS)

/* The jumps of one increment: every gap of 0..SHORT_GAPS steps, and
 * 2^k steps for 2^k <= the longest jump asked for when it was built. */
typedef struct {
    int ready;
    pcg128_t inc;
    jump_t short_gap[SHORT_GAPS + 1];
    jump_t pow2[63];
} jumps_t;

/* Make `jumps` the table of increment `inc`, for jumps of up to
 * `longest` steps, unless it already is. */
static void ensure_jumps(jumps_t *jumps, pcg128_t inc, int64_t longest)
{
    if (jumps->ready && jumps->inc == inc)
        return;
    jumps->ready = 1;
    jumps->inc = inc;
    jumps->short_gap[0] = (jump_t){1, 0};
    for (int gap = 1; gap <= SHORT_GAPS; gap++) {
        const jump_t *last = &jumps->short_gap[gap - 1];
        jumps->short_gap[gap] = (jump_t){last->mult * PCG_MULTIPLIER_128,
                                         last->plus * PCG_MULTIPLIER_128 + inc};
    }
    jumps->pow2[0] = jumps->short_gap[1];
    for (int k = 1; k < 63 && ((int64_t)1 << k) <= longest; k++) {
        const jump_t *half = &jumps->pow2[k - 1];
        jumps->pow2[k] = (jump_t){half->mult * half->mult, half->mult * half->plus + half->plus};
    }
}

/* The state `gap` steps after `state`, for gaps longer than SHORT_GAPS:
 * the low bits from the short table, then one jump per higher set bit. */
static pcg128_t jump_far(const jumps_t *jumps, pcg128_t state, int64_t gap)
{
    const jump_t *low = &jumps->short_gap[gap & (SHORT_GAPS - 1)];
    state = low->mult * state + low->plus;
    for (int k = SHORT_GAP_BITS; (gap >> k) != 0; k++) {
        if ((gap >> k) & 1)
            state = jumps->pow2[k].mult * state + jumps->pow2[k].plus;
    }
    return state;
}

/* The state `gap` >= 0 steps after `state`. */
static inline ALWAYS_INLINE pcg128_t jump(const jumps_t *jumps, pcg128_t state, int64_t gap)
{
    if (gap <= SHORT_GAPS)
        return jumps->short_gap[gap].mult * state + jumps->short_gap[gap].plus;
    return jump_far(jumps, state, gap);
}

static inline pcg128_t load128(const uint64_t words[2])
{
    return (pcg128_t)words[1] << 64 | words[0];
}

static inline void store128(uint64_t words[2], pcg128_t value)
{
    words[0] = (uint64_t)value;
    words[1] = (uint64_t)(value >> 64);
}

/* One block onto a PCG64 tape with its uniform lane deferred: the index
 * and direction lanes as fill_block draws them, the lane's start state
 * saved in the tape, the generator jumped `block` steps past the lane,
 * and with lanes == 2 the lane-2 uniforms drawn after it.  The
 * generator ends where fill_tape leaves it. */
static void defer_block(tape_t *tape, jumps_t *jumps)
{
    source_t s = load_source(PCG64, tape->bitgen);
    const int64_t block = tape->block;
    fill_bounded(PCG64, &s, (uint32_t)(tape->n - 1), block, tape->indices);
    fill_bounded(PCG64, &s, 5, block, tape->directions);
    store128(tape->lane_state, s.state);
    store128(tape->lane_inc, s.inc);
    ensure_jumps(jumps, s.inc, block);
    s.state = jump(jumps, s.state, block);
    if (tape->lanes == 2)
        fill_uniform(PCG64, &s, block, tape->uniforms2);
    store_source(PCG64, &s);
    tape->deferred = 1;
    tape->cursor = 0;
    tape->size = block;
}

/* A run_mode call's private copy of a deferred lane: `state` is the
 * state after the uniform at span position `position`.  It starts as the
 * saved `lane_state`, one position before the block's first uniform,
 * which is span position -1 - (the span's start in the block). */
struct lane {
    pcg128_t state;
    int64_t position;
    const jumps_t *jumps;
};

/* The uniform at span position `cursor` > lane->position. */
static inline ALWAYS_INLINE double lane_uniform(lane_t *lane, int64_t cursor)
{
    lane->state = jump(lane->jumps, lane->state, cursor - lane->position);
    lane->position = cursor;
    return uint64_to_double(pcg_output(lane->state));
}
#endif

/* Write a deferred uniform lane into the tape and clear `deferred`; the
 * generator is not touched.  Python calls it before it reads the lane
 * (BatchedMoveDraws.uniforms).  Returns the tape's size. */
int64_t draw_deferred(tape_t *tape)
{
#ifdef __SIZEOF_INT128__
    if (tape->deferred) {
        source_t s = {.state = load128(tape->lane_state), .inc = load128(tape->lane_inc)};
        fill_uniform(PCG64, &s, tape->size, tape->uniforms);
        tape->deferred = 0;
    }
#endif
    return tape->size;
}

/* The uniform at span position `cursor`: read off the tape, or, in a
 * `deferred` span, drawn from the lane. */
static inline ALWAYS_INLINE double read_uniform(
    int deferred, const double *uniforms, lane_t *lane, int64_t cursor)
{
#ifdef __SIZEOF_INT128__
    if (deferred)
        return lane_uniform(lane, cursor);
#endif
    (void)deferred;
    (void)lane;
    return uniforms[cursor];
}

/* `count` proposals in kernel mode `mode` off the tape, from its cursor
 * on: one run_mode call per tape span, and a one-block refill whenever
 * the cursor reaches the end of the tape.  A PCG64 tape defers the
 * uniform lane of the blocks it refills here (defer_block).  With
 * `samples`, spans are also cut after proposal `first` of the call and
 * after every `stride` proposals from there, and each cut writes
 * counters[EDGE_DELTA] to the next entry of `samples`. */
static inline ALWAYS_INLINE int64_t run_tape(
    int mode, tape_t *tape, int64_t count, const grid_t *g, uint8_t *plane,
    const double *rows, const double *swap_acceptance, double swap_probability,
    int64_t *counters, int64_t stride, int64_t first, int64_t *samples)
{
    int64_t done = 0;
    int64_t cut = samples ? first : count;
#ifdef __SIZEOF_INT128__
    jumps_t jumps;
    jumps.ready = 0;
#endif
    while (done < count && !counters[GUARD_HIT]) {
        if (tape->cursor >= tape->size) {
#ifdef __SIZEOF_INT128__
            if (tape->source == PCG64)
                defer_block(tape, &jumps);
            else
#endif
                fill_tape(tape);
        }
        const int64_t at = tape->cursor;
        int64_t span = tape->size - at;
        if (span > count - done)
            span = count - done;
        if (span > cut - done)
            span = cut - done;
        const double *uniforms2 = mode == EDGE_COLOR ? tape->uniforms2 + at : NULL;
        int64_t consumed;
#ifdef __SIZEOF_INT128__
        if (tape->deferred) {
            const pcg128_t inc = load128(tape->lane_inc);
            ensure_jumps(&jumps, inc, tape->block);
            lane_t lane = {load128(tape->lane_state), -1 - at, &jumps};
            consumed = run_mode(
                mode, 1, span, tape->indices + at, tape->directions + at, NULL, &lane,
                uniforms2, g, plane, rows, swap_acceptance, swap_probability, counters);
        } else
#endif
            consumed = run_mode(
                mode, 0, span, tape->indices + at, tape->directions + at,
                tape->uniforms + at, NULL, uniforms2, g, plane, rows, swap_acceptance,
                swap_probability, counters);
        tape->cursor = at + consumed;
        done += consumed;
        if (done == cut && samples) {
            *samples++ = counters[EDGE_DELTA];
            cut += stride;
        }
    }
    return done;
}

/* Resolve `count` proposals in kernel mode `mode` (see run_mode) off the
 * tape and return how many were consumed: `count`, or fewer when an
 * accepted move lands in the guard band.  A non-NULL `samples` receives
 * the edge delta so far after proposal `first` >= 1 and every `stride`
 * >= 1 proposals after it (see run_tape), so a traced run is one call;
 * NULL samples nothing.  The caller holds the generator's lock.  Each
 * case inlines run_tape with a constant mode, so the tests of the other
 * modes compile away. */
int64_t run_chain(
    tape_t *tape, int64_t mode, int64_t count, const grid_t *g, uint8_t *plane,
    const double *rows, const double *swap_acceptance, double swap_probability,
    int64_t *counters, int64_t stride, int64_t first, int64_t *samples)
{
    switch (mode) {
    case EDGE:
        return run_tape(EDGE, tape, count, g, plane, rows, swap_acceptance,
                        swap_probability, counters, stride, first, samples);
    case EDGE_SITE:
        return run_tape(EDGE_SITE, tape, count, g, plane, rows, swap_acceptance,
                        swap_probability, counters, stride, first, samples);
    case EDGE_COLOR:
        return run_tape(EDGE_COLOR, tape, count, g, plane, rows, swap_acceptance,
                        swap_probability, counters, stride, first, samples);
    }
    return 0; /* the engine rejects unknown modes when it is built */
}

/* Breadth-first flood over the 6-connected cells that hold `want`, from
 * `start`, within the width x height window (no guard band is assumed:
 * every neighbor is bounds-checked).  Marks each reached cell in `seen`
 * and returns how many it reached; cells already seen are not entered,
 * so one `seen` plane serves a particle flood and an empty-cell flood.
 * `queue` needs room for every cell the flood can reach.  The engine
 * reads connectivity and holes of a start configuration off it. */
int64_t flood(
    const int8_t *cells, int64_t width, int64_t height, int64_t start,
    int64_t want, uint8_t *seen, int64_t *queue)
{
    static const int64_t dx[6] = {1, 0, -1, -1, 0, 1};
    static const int64_t dy[6] = {0, 1, 1, 0, -1, -1};
    int64_t head = 0, tail = 0;
    if (start < 0 || start >= width * height || seen[start] || cells[start] != want)
        return 0;
    seen[start] = 1;
    queue[tail++] = start;
    while (head < tail) {
        int64_t flat = queue[head++];
        int64_t y = flat / width, x = flat % width;
        for (int d = 0; d < 6; d++) {
            int64_t nx = x + dx[d], ny = y + dy[d];
            if (nx < 0 || nx >= width || ny < 0 || ny >= height)
                continue;
            int64_t next = ny * width + nx;
            if (seen[next] || cells[next] != want)
                continue;
            seen[next] = 1;
            queue[tail++] = next;
        }
    }
    return tail;
}
