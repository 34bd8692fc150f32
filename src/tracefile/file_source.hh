/**
 * @file
 * Bounded-memory streaming TraceSource over an on-disk trace file.
 *
 * A FileTraceSource owns one file handle and one raw chunk buffer
 * (chunk_records × 32 bytes, default 128 KiB); that buffer is the only
 * window of the trace ever resident, so a hundred-GB trace replays at a
 * fixed RSS per core. The stream loops: at the end of the record region
 * the source seeks back to the first record, exactly like the in-memory
 * reader repeats short traces.
 *
 * Verification is folded into the stream: the structural checks
 * (magic, version, truncation, record count) run at construction via
 * readInfo(), and the footer checksum is accumulated chunk by chunk
 * during the first pass and compared when the pass completes — a
 * corrupted record region throws ConfigError naming the file and byte
 * range rather than silently feeding garbage to the core. (The CLI's
 * file: workload resolution additionally runs verifyFile() up front, so
 * sweeps fail before the first simulation, not mid-grid.)
 *
 * Each concurrent simulation builds its own FileTraceSource over the
 * same path — the sources share nothing, which is what keeps N-worker
 * replay deterministic and lock-free.
 */

#ifndef TLPSIM_TRACEFILE_FILE_SOURCE_HH
#define TLPSIM_TRACEFILE_FILE_SOURCE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "tracefile/format.hh"
#include "trace/trace.hh"

namespace tlpsim::tracefile
{

class FileTraceSource final : public TraceSource
{
  public:
    explicit FileTraceSource(const std::string &path,
                             std::size_t chunk_records
                             = TraceReader::kChunkRecords);
    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    std::uint64_t size() const override { return info_.record_count; }
    const std::string &name() const override { return info_.name; }
    std::size_t read(TraceInstr *out, std::size_t n) override;

    /** Bytes of file data this source ever holds at once. */
    std::size_t chunkBytes() const { return raw_.size(); }

  private:
    TraceFileInfo info_;
    std::FILE *f_ = nullptr;
    std::vector<unsigned char> raw_;
    std::uint64_t pass_pos_ = 0;   ///< records consumed in current pass
    bool first_pass_ = true;
    Fnv1a64 sum_;
};

} // namespace tlpsim::tracefile

#endif // TLPSIM_TRACEFILE_FILE_SOURCE_HH
