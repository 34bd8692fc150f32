#include "workloads/recorder.hh"

#include <algorithm>
#include <utility>

namespace tlpsim::workloads
{

namespace
{

/**
 * ASLR-stable anchor inside this binary's text segment. PIE relocates
 * the whole segment by one slide, so call-site addresses normalized
 * against the anchor are identical from run to run — without this,
 * recorded PCs (and every PC-hashed predictor feature downstream) would
 * differ between processes and figures would not reproduce exactly.
 */
Addr
anchorPc()
{
    static const Addr anchor = reinterpret_cast<Addr>(&anchorPc);
    return anchor;
}

/** Synthetic text base recorded PCs are rebased onto. */
constexpr Addr kTraceCodeBase = 0x400000;

/** PC of the caller's call site (stable per static call site and run). */
inline Addr
callerPc()
{
    Addr pc = reinterpret_cast<Addr>(
        __builtin_extract_return_addr(__builtin_return_address(0)));
    return kTraceCodeBase + (pc - anchorPc());
}

} // namespace

TraceRecorder::TraceRecorder(Sink sink, const Options &opt)
    : chunk_(std::make_unique<Trace>()), budget_(opt.max_instrs),
      brk_(opt.heap_base), sink_(std::move(sink))
{
    chunk_->reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(opt.max_instrs, kChunkRecords)));
}

TraceRecorder::TraceRecorder(Trace &out, const Options &opt)
    : TraceRecorder([&out](const TraceInstr *p,
                           std::size_t n) { out.append(p, n); },
                    opt)
{
}

void
TraceRecorder::flush()
{
    if (chunk_->empty())
        return;
    sink_(chunk_->data(), chunk_->size());
    flushed_ += chunk_->size();
    budget_ -= chunk_->size();
    chunk_->clear();
}

void
TraceRecorder::emit(const TraceInstr &i)
{
    chunk_->push(i);
    if (chunk_->size() == kChunkRecords)
        flush();
}

Addr
TraceRecorder::alloc(std::uint64_t bytes)
{
    Addr base = brk_;
    // Round the region up to a page and leave one guard page between
    // regions so distinct arrays never share a page (keeps first-access
    // features meaningful).
    std::uint64_t sz = (bytes + kPageMask) & ~kPageMask;
    brk_ += sz + kPageSize;
    return base;
}

RegId
TraceRecorder::load(Addr vaddr, RegId a, RegId b)
{
    return loadAt(callerPc(), vaddr, a, b);
}

void
TraceRecorder::store(Addr vaddr, RegId a, RegId b)
{
    storeAt(callerPc(), vaddr, a, b);
}

RegId
TraceRecorder::alu(RegId a, RegId b)
{
    return aluAt(callerPc(), a, b);
}

void
TraceRecorder::branch(bool taken, RegId a)
{
    branchAt(callerPc(), taken, a);
}

void
TraceRecorder::jump()
{
    if (full())
        return;
    TraceInstr i;
    i.ip = callerPc();
    i.branch = BranchKind::Direct;
    i.taken = true;
    emit(i);
}

RegId
TraceRecorder::loadAt(Addr ip, Addr vaddr, RegId a, RegId b)
{
    if (full())
        return allocReg();
    TraceInstr i;
    i.ip = ip;
    i.ld_vaddr = vaddr;
    i.src0 = a;
    i.src1 = b;
    i.dst = allocReg();
    emit(i);
    return i.dst;
}

void
TraceRecorder::storeAt(Addr ip, Addr vaddr, RegId a, RegId b)
{
    if (full())
        return;
    TraceInstr i;
    i.ip = ip;
    i.st_vaddr = vaddr;
    i.src0 = a;
    i.src1 = b;
    emit(i);
}

RegId
TraceRecorder::aluAt(Addr ip, RegId a, RegId b)
{
    if (full())
        return allocReg();
    TraceInstr i;
    i.ip = ip;
    i.src0 = a;
    i.src1 = b;
    i.dst = allocReg();
    emit(i);
    return i.dst;
}

void
TraceRecorder::branchAt(Addr ip, bool taken, RegId a)
{
    if (full())
        return;
    TraceInstr i;
    i.ip = ip;
    i.branch = BranchKind::Conditional;
    i.taken = taken;
    i.src0 = a;
    emit(i);
}

} // namespace tlpsim::workloads
