// wal_dump: offline pretty-printer for every durability artifact in a log
// directory (src/wal formats, DESIGN §5f–5g): WAL segments, checkpoint
// manifests, and checkpoint table segments. The file kind is sniffed from
// its magic, so globbing the whole directory works:
//
//   wal_dump [-v] <wal-segment|MANIFEST-*|table-*.ckpt>...
//
// Walks each file's framing, verifying every CRC layer, and keeps going
// past corruption (unlike recovery, which stops at the first invalid byte)
// so a damaged log can be inspected in full. For manifests it also prints
// the implied WAL suffix (the epochs recovery would still replay).
//
// Exit status is 0 if every file checked out, 1 otherwise (including a
// path that is not a readable regular file, e.g. the log directory itself).

#include <sys/stat.h>

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "wal/checkpoint_format.h"
#include "wal/wal_format.h"

namespace {

using mv3c::wal::BlockHeader;
using mv3c::wal::BlockHeaderCrc;
using mv3c::wal::CkptSegmentHeader;
using mv3c::wal::CkptTableKind;
using mv3c::wal::ManifestHeader;
using mv3c::wal::ManifestTableEntry;
using mv3c::wal::RecordCrcOk;
using mv3c::wal::RecordHeader;
using mv3c::wal::RecordType;
using mv3c::wal::SegmentHeader;
using mv3c::wal::ValidCkptSegmentHeader;
using mv3c::wal::ValidSegmentHeader;

/// Reads a regular file whole. Anything else is refused with a reason in
/// `err`: fopen succeeds on a directory, and seeking it reports a bogus
/// size, so the file type is checked before any byte is read.
bool ReadWholeFile(const char* path, std::vector<uint8_t>* out,
                   std::string* err) {
  struct stat st;
  if (stat(path, &st) != 0) {
    *err = std::strerror(errno);
    return false;
  }
  if (!S_ISREG(st.st_mode)) {
    *err = "not a regular file";
    return false;
  }
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    *err = std::strerror(errno);
    return false;
  }
  out->resize(static_cast<size_t>(st.st_size));
  const size_t got =
      out->empty() ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (got != out->size()) {
    *err = "short read";
    return false;
  }
  return true;
}

void PrintKeyBytes(const uint8_t* key, uint32_t n) {
  const uint32_t shown = n < 8 ? n : 8;
  std::printf("key=");
  for (uint32_t i = 0; i < shown; ++i) std::printf("%02x", key[i]);
  if (shown < n) std::printf("..");
}

const char* TypeName(uint8_t t) {
  if (t == static_cast<uint8_t>(RecordType::kUpsert)) return "upsert";
  if (t == static_cast<uint8_t>(RecordType::kDelete)) return "delete";
  return "?";
}

const char* KindName(uint8_t k) {
  if (k == static_cast<uint8_t>(CkptTableKind::kMvcc)) return "mvcc";
  if (k == static_cast<uint8_t>(CkptTableKind::kSv)) return "sv";
  return "?";
}

void PrintRecord(const uint8_t* rec, const RecordHeader& rh, bool rec_ok) {
  std::printf("    table=%u ts=%" PRIu64 " %s%s%s mask=%016" PRIx64
              " %uB+%uB ",
              rh.table_id, rh.commit_ts, TypeName(rh.type),
              (rh.flags & mv3c::wal::kFlagInsert) ? " insert" : "",
              (rh.flags & mv3c::wal::kFlagRepaired) ? " repaired" : "",
              rh.column_mask, rh.key_bytes, rh.val_bytes);
  PrintKeyBytes(rec + sizeof(RecordHeader), rh.key_bytes);
  std::printf(" crc=%s\n", rec_ok ? "ok" : "BAD");
}

/// Walks a flat run of WAL-framed records (a checkpoint segment's body).
/// Returns true if every record framed and CRC-verified; counts them.
bool WalkRecords(const uint8_t* p, size_t n, bool verbose,
                 uint64_t* count) {
  size_t off = 0;
  bool clean = true;
  while (off < n) {
    if (n - off < sizeof(RecordHeader)) {
      std::printf("    @%zu [truncated record header: %zu trailing "
                  "bytes]\n",
                  off, n - off);
      return false;
    }
    RecordHeader rh;
    std::memcpy(&rh, p + off, sizeof(rh));
    const size_t rsize = sizeof(RecordHeader) + rh.key_bytes + rh.val_bytes;
    if (n - off < rsize) {
      std::printf("    @%zu [record overruns file]\n", off);
      return false;
    }
    const bool rec_ok = RecordCrcOk(p + off, rh);
    clean = clean && rec_ok;
    if (verbose || !rec_ok) PrintRecord(p + off, rh, rec_ok);
    ++*count;
    off += rsize;
  }
  return clean;
}

/// Dumps a checkpoint table segment; returns true if fully valid. The
/// printed file_crc/bytes/record count can be checked against the owning
/// manifest's entry by eye (the manifest is the authority on what they
/// SHOULD be; a standalone segment cannot know).
bool DumpCkptSegment(const char* path, const std::vector<uint8_t>& buf,
                     bool verbose) {
  std::printf("%s: checkpoint segment, %zu bytes, file_crc=%08x\n", path,
              buf.size(), mv3c::crc32::Compute(buf.data(), buf.size()));
  CkptSegmentHeader h;
  std::memcpy(&h, buf.data(), sizeof(h));
  if (!ValidCkptSegmentHeader(h)) {
    std::printf("  [BAD checkpoint segment header]\n");
    return false;
  }
  std::printf("  header ok: table=%u checkpoint_seq=%" PRIu64
              " (format v%u)\n",
              h.table_id, h.checkpoint_seq, h.format_version);
  uint64_t count = 0;
  const bool clean = WalkRecords(buf.data() + sizeof(h),
                                 buf.size() - sizeof(h), verbose, &count);
  std::printf("  %" PRIu64 " records, %s\n", count,
              clean ? "all crc ok" : "DAMAGED");
  return clean;
}

/// Dumps a checkpoint manifest; returns true if it validates as a unit.
bool DumpManifest(const char* path, const std::vector<uint8_t>& buf) {
  std::printf("%s: checkpoint manifest, %zu bytes\n", path, buf.size());
  if (buf.size() < sizeof(ManifestHeader)) {
    std::printf("  [truncated manifest header]\n");
    return false;
  }
  ManifestHeader h;
  std::memcpy(&h, buf.data(), sizeof(h));
  if (h.format_version != mv3c::wal::kCkptFormatVersion) {
    std::printf("  [unknown format v%u]\n", h.format_version);
    return false;
  }
  const size_t want =
      sizeof(ManifestHeader) +
      static_cast<size_t>(h.n_tables) * sizeof(ManifestTableEntry);
  if (buf.size() != want) {
    std::printf("  [size mismatch: %u tables imply %zu bytes]\n",
                h.n_tables, want);
    return false;
  }
  std::vector<ManifestTableEntry> entries(h.n_tables);
  if (h.n_tables != 0) {
    std::memcpy(entries.data(), buf.data() + sizeof(h),
                entries.size() * sizeof(ManifestTableEntry));
  }
  const bool crc_ok =
      mv3c::wal::ManifestCrc(h, entries.data(), h.n_tables) ==
      h.manifest_crc;
  std::printf("  seq=%" PRIu64 " checkpoint_ts=%" PRIu64
              " cut_epoch=%" PRIu64 " tables=%u crc=%s\n",
              h.checkpoint_seq, h.checkpoint_ts, h.cut_epoch, h.n_tables,
              crc_ok ? "ok" : "BAD");
  uint64_t rows = 0;
  for (const ManifestTableEntry& e : entries) {
    std::printf("    table=%u kind=%s scan_ts=%" PRIu64
                " records=%" PRIu64 " bytes=%" PRIu64 " file_crc=%08x\n",
                e.table_id, KindName(e.kind), e.scan_ts, e.record_count,
                e.file_bytes, e.file_crc);
    rows += e.record_count;
  }
  std::printf("  %" PRIu64 " checkpointed rows; implied WAL suffix: "
              "replay blocks with epoch > %" PRIu64 "\n",
              rows, h.cut_epoch);
  return crc_ok;
}

/// Parses the partition id out of a `wal-pPP-NNNNNN.log` basename; returns
/// -1 for the single-stream `wal-NNNNNN.log` naming (or anything else).
int PartitionOfPath(const char* path) {
  const char* base = std::strrchr(path, '/');
  base = base == nullptr ? path : base + 1;
  unsigned partition = 0;
  unsigned seg = 0;
  if (std::sscanf(base, "wal-p%2u-%6u.log", &partition, &seg) == 2) {
    return static_cast<int>(partition);
  }
  return -1;
}

/// Dumps one WAL segment; returns true if every CRC verified.
bool DumpSegment(const char* path, const std::vector<uint8_t>& buf,
                 bool verbose) {
  const int partition = PartitionOfPath(path);
  if (partition >= 0) {
    std::printf("%s: %zu bytes (partition %d stream)\n", path, buf.size(),
                partition);
  } else {
    std::printf("%s: %zu bytes\n", path, buf.size());
  }
  if (buf.size() < sizeof(SegmentHeader)) {
    std::printf("  [truncated segment header]\n");
    return false;
  }
  SegmentHeader sh;
  std::memcpy(&sh, buf.data(), sizeof(sh));
  if (!ValidSegmentHeader(sh)) {
    std::printf("  [BAD segment header]\n");
    return false;
  }
  std::printf("  segment header ok (format v%u)\n", sh.format_version);

  bool clean = true;
  size_t off = sizeof(SegmentHeader);
  while (off < buf.size()) {
    if (buf.size() - off < sizeof(BlockHeader)) {
      std::printf("  @%zu [truncated block header: %zu trailing bytes]\n",
                  off, buf.size() - off);
      return false;
    }
    BlockHeader bh;
    std::memcpy(&bh, buf.data() + off, sizeof(bh));
    if (bh.magic != mv3c::wal::kBlockMagic) {
      std::printf("  @%zu [bad block magic 0x%08x]\n", off, bh.magic);
      return false;  // cannot resynchronize: block sizes are in headers
    }
    const bool header_ok = bh.header_crc == BlockHeaderCrc(bh);
    const uint8_t* payload = buf.data() + off + sizeof(BlockHeader);
    const bool payload_present =
        header_ok && buf.size() - off - sizeof(BlockHeader) >= bh.payload_bytes;
    const bool payload_ok =
        payload_present &&
        mv3c::crc32::Compute(payload, bh.payload_bytes) == bh.payload_crc;
    // A heartbeat block (partitioned logs only) proves its stream was
    // merely idle for the epoch, not torn — worth calling out explicitly.
    const bool heartbeat =
        header_ok && bh.payload_bytes == 0 && bh.n_records == 0;
    std::printf("  @%zu block epoch=%" PRIu64
                " records=%u payload=%uB header_crc=%s payload_crc=%s%s\n",
                off, bh.epoch, bh.n_records, bh.payload_bytes,
                header_ok ? "ok" : "BAD",
                !payload_present ? "missing" : (payload_ok ? "ok" : "BAD"),
                heartbeat ? " [heartbeat]" : "");
    if (!header_ok || !payload_present) return false;
    clean = clean && payload_ok;

    size_t roff = 0;
    for (uint32_t i = 0; i < bh.n_records; ++i) {
      if (bh.payload_bytes - roff < sizeof(RecordHeader)) {
        std::printf("    [record %u truncated]\n", i);
        clean = false;
        break;
      }
      RecordHeader rh;
      std::memcpy(&rh, payload + roff, sizeof(rh));
      const size_t rsize = sizeof(RecordHeader) + rh.key_bytes + rh.val_bytes;
      if (bh.payload_bytes - roff < rsize) {
        std::printf("    [record %u overruns payload]\n", i);
        clean = false;
        break;
      }
      const bool rec_ok = RecordCrcOk(payload + roff, rh);
      clean = clean && rec_ok;
      if (verbose || !rec_ok) PrintRecord(payload + roff, rh, rec_ok);
      roff += rsize;
    }
    off += sizeof(BlockHeader) + bh.payload_bytes;
  }
  return clean;
}

/// Routes one file to the right dumper by sniffing its magic.
bool DumpFile(const char* path, bool verbose) {
  std::vector<uint8_t> buf;
  std::string err;
  if (!ReadWholeFile(path, &buf, &err)) {
    std::fprintf(stderr, "wal_dump: %s: %s\n", path, err.c_str());
    return false;
  }
  if (buf.size() >= 8 &&
      std::memcmp(buf.data(), mv3c::wal::kManifestMagic, 8) == 0) {
    return DumpManifest(path, buf);
  }
  if (buf.size() >= sizeof(CkptSegmentHeader) &&
      std::memcmp(buf.data(), mv3c::wal::kCkptSegmentMagic, 8) == 0) {
    return DumpCkptSegment(path, buf, verbose);
  }
  return DumpSegment(path, buf, verbose);
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: wal_dump [-v] "
                 "<wal-segment|MANIFEST-*|table-*.ckpt>...\n");
    return 2;
  }
  bool all_ok = true;
  for (const char* p : paths) all_ok = DumpFile(p, verbose) && all_ok;
  return all_ok ? 0 : 1;
}
