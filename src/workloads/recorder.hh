/**
 * @file
 * Trace recorder: the bridge between real kernel code and tlpsim traces.
 *
 * Workload kernels (GAP graph algorithms, SPEC-like loops) execute their
 * real algorithm on host data structures and, as they run, record the
 * corresponding instruction stream through this API. Each recorder call
 * emits exactly one TraceInstr. Program counters are taken from the
 * caller's return address, so every *static* call site in a kernel gets a
 * stable, distinct PC — exactly the property PC-indexed predictors
 * (perceptron features, IPCP, Berti, SPP) rely on.
 *
 * Register dependencies are explicit: load() returns the destination
 * register holding the loaded value and kernels thread those registers into
 * dependent operations, so pointer chases serialize in the out-of-order
 * core just like the real program would.
 */

#ifndef TLPSIM_WORKLOADS_RECORDER_HH
#define TLPSIM_WORKLOADS_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "trace/trace.hh"

namespace tlpsim::workloads
{

/** A virtual-address view of a host array mirrored into trace space. */
struct VArray
{
    Addr base = 0;
    unsigned elem_size = 0;

    Addr
    at(std::uint64_t index) const
    {
        return base + index * elem_size;
    }
};

/**
 * Records one instruction per call into a chunk and hands each full chunk
 * of kChunkRecords to a sink, so recording holds one chunk in memory
 * however long the trace.
 *
 * The recorder owns a bump allocator for the synthetic virtual heap so
 * each workload's data regions are disjoint and page-aligned.
 */
class TraceRecorder
{
  public:
    struct Options
    {
        std::uint64_t max_instrs = 1'000'000;
        Addr heap_base = Addr{1} << 32;   ///< 4 GiB: clear of code addresses
    };

    /** Receives the recorded stream in order, one chunk per call. */
    using Sink = std::function<void(const TraceInstr *, std::size_t)>;

    /** Records per sink call: 16384 x 32 B = 512 KiB. */
    static constexpr std::size_t kChunkRecords = 16384;

    TraceRecorder(Sink sink, const Options &opt);

    /** Record into @p out (tests and examples); flush() before reading
     *  it. */
    TraceRecorder(Trace &out, const Options &opt);

    /** True once max_instrs records have been emitted; kernels must stop.
     *  Recorded PCs are call-site offsets, so the kernels' code size is
     *  part of every trace: this stays one compare of the chunk's size
     *  against the budget left for it. */
    bool full() const { return chunk_->size() >= budget_; }

    std::uint64_t instrCount() const { return flushed_ + chunk_->size(); }

    /** Hand the buffered records to the sink; call once the kernel
     *  returns. */
    void flush();

    /** Reserve @p bytes of synthetic virtual address space (page aligned). */
    Addr alloc(std::uint64_t bytes);

    /** Reserve an array of @p count elements of @p elem_size bytes. */
    VArray
    allocArray(std::uint64_t count, unsigned elem_size)
    {
        return VArray{alloc(count * elem_size), elem_size};
    }

    /**
     * Emit a load from @p vaddr whose address depends on registers
     * @p a / @p b. Returns the register the value lands in.
     */
    [[gnu::noinline]] RegId load(Addr vaddr, RegId a = kNoReg,
                                 RegId b = kNoReg);

    /** Emit a store to @p vaddr with data/address dependencies. */
    [[gnu::noinline]] void store(Addr vaddr, RegId a = kNoReg,
                                 RegId b = kNoReg);

    /** Emit a 1-cycle ALU op consuming a/b, producing a new register. */
    [[gnu::noinline]] RegId alu(RegId a = kNoReg, RegId b = kNoReg);

    /** Emit a conditional branch with the given outcome. */
    [[gnu::noinline]] void branch(bool taken, RegId a = kNoReg);

    /** Emit an unconditional direct branch (loop back-edges, calls). */
    [[gnu::noinline]] void jump();

    /** Emit @p n independent filler ALU ops (same PC site). */
    void
    ops(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            alu();
    }

    /**
     * Explicit-PC variants, used by unit tests and microbenchmarks where
     * a synthetic, build-independent PC is required.
     */
    RegId loadAt(Addr ip, Addr vaddr, RegId a = kNoReg, RegId b = kNoReg);
    void storeAt(Addr ip, Addr vaddr, RegId a = kNoReg, RegId b = kNoReg);
    RegId aluAt(Addr ip, RegId a = kNoReg, RegId b = kNoReg);
    void branchAt(Addr ip, bool taken, RegId a = kNoReg);

  private:
    /** Rotate through architectural registers 1..kNumRegs-1. */
    RegId
    allocReg()
    {
        RegId r = next_reg_;
        next_reg_ = (next_reg_ % (kNumRegs - 1)) + 1;
        return r;
    }

    void emit(const TraceInstr &i);

    std::unique_ptr<Trace> chunk_;
    std::uint64_t budget_;   ///< records the current chunk may still take
    Addr brk_;
    RegId next_reg_ = 1;
    Sink sink_;
    std::uint64_t flushed_ = 0;   ///< records handed to the sink so far
};

} // namespace tlpsim::workloads

#endif // TLPSIM_WORKLOADS_RECORDER_HH
