//===- DiskStore.cpp ------------------------------------------------------===//

#include "cache/DiskStore.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace se2gis;

namespace fs = std::filesystem;

namespace {

constexpr const char *MetaName = "store.meta";
constexpr const char *MetaHeader = "se2gis-cache v1";

std::uint32_t crcTableAt(std::size_t I) {
  static const auto Table = [] {
    std::array<std::uint32_t, 256> T{};
    for (std::uint32_t N = 0; N < 256; ++N) {
      std::uint32_t C = N;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[N] = C;
    }
    return T;
  }();
  return Table[I];
}

std::string escapePayload(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

/// Unescapes the payload between quotes; \p Pos starts after the opening
/// quote and ends after the closing one. Returns false on a malformed or
/// unterminated escape/string.
bool unescapePayload(const std::string &S, std::size_t &Pos,
                     std::string &Out) {
  Out.clear();
  while (Pos < S.size()) {
    char C = S[Pos++];
    if (C == '"')
      return true;
    if (C != '\\') {
      Out += C;
      continue;
    }
    if (Pos >= S.size())
      return false;
    switch (S[Pos++]) {
    case '\\':
      Out += '\\';
      break;
    case '"':
      Out += '"';
      break;
    case 'n':
      Out += '\n';
      break;
    case 'r':
      Out += '\r';
      break;
    case 't':
      Out += '\t';
      break;
    default:
      return false;
    }
  }
  return false;
}

bool expect(const std::string &S, std::size_t &Pos, const char *Lit) {
  std::size_t N = std::char_traits<char>::length(Lit);
  if (S.compare(Pos, N, Lit) != 0)
    return false;
  Pos += N;
  return true;
}

/// write(2) until everything landed or a hard error; EINTR-safe.
bool writeAll(int Fd, const char *Data, std::size_t Len) {
  while (Len > 0) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<std::size_t>(N);
  }
  return true;
}

/// fsync a file by path (used for files we do not keep open: the compacted
/// segment before its rename, the meta file after creation).
void fsyncFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

/// fsync the directory entry so a rename/creation is durable, not just the
/// file contents.
void fsyncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

} // namespace

std::uint32_t se2gis::crc32Of(const std::string &Data) {
  std::uint32_t C = 0xffffffffu;
  for (unsigned char B : Data)
    C = crcTableAt((C ^ B) & 0xff) ^ (C >> 8);
  return C ^ 0xffffffffu;
}

std::string se2gis::formatStoreLine(const Hash128 &K,
                                    const std::string &Payload) {
  std::string Hex = K.hex();
  std::uint32_t Crc = crc32Of(Hex + Payload);
  std::ostringstream OS;
  OS << "{\"k\":\"" << Hex << "\",\"p\":\"" << escapePayload(Payload)
     << "\",\"c\":" << Crc << '}';
  return OS.str();
}

bool se2gis::parseStoreLine(const std::string &Line, Hash128 &KeyOut,
                            std::string &PayloadOut) {
  std::size_t Pos = 0;
  if (!expect(Line, Pos, "{\"k\":\""))
    return false;
  if (Pos + 32 > Line.size())
    return false;
  std::string Hex = Line.substr(Pos, 32);
  if (!Hash128::fromHex(Hex, KeyOut))
    return false;
  Pos += 32;
  if (!expect(Line, Pos, "\",\"p\":\""))
    return false;
  if (!unescapePayload(Line, Pos, PayloadOut))
    return false;
  if (!expect(Line, Pos, ",\"c\":"))
    return false;
  std::uint64_t Crc = 0;
  std::size_t Digits = 0;
  while (Pos < Line.size() && Line[Pos] >= '0' && Line[Pos] <= '9') {
    Crc = Crc * 10 + static_cast<std::uint64_t>(Line[Pos] - '0');
    ++Pos;
    ++Digits;
  }
  if (!Digits || Crc > 0xffffffffu)
    return false;
  if (!expect(Line, Pos, "}") || Pos != Line.size())
    return false;
  return static_cast<std::uint32_t>(Crc) == crc32Of(Hex + PayloadOut);
}

// --- DiskStore ----------------------------------------------------------===//

std::unique_ptr<DiskStore> DiskStore::open(const std::string &Dir,
                                           std::string &Error) {
  std::error_code EC;
  fs::path P(Dir);
  if (fs::exists(P, EC) && !fs::is_directory(P, EC)) {
    Error = "cache dir '" + Dir + "' exists but is not a directory";
    return nullptr;
  }
  fs::create_directories(P, EC);
  if (EC) {
    Error = "cannot create cache dir '" + Dir + "': " + EC.message();
    return nullptr;
  }

  fs::path Meta = P / MetaName;
  if (fs::exists(Meta, EC)) {
    std::ifstream In(Meta);
    std::string Header;
    std::getline(In, Header);
    if (Header != MetaHeader) {
      // Unknown version: refuse rather than guess at the format. The
      // operator can delete the directory to start fresh.
      Error = "cache dir '" + Dir + "' holds an incompatible store (header '" +
              Header + "'); delete it or choose another cache dir";
      return nullptr;
    }
  } else {
    std::ofstream Out(Meta);
    if (!Out) {
      Error = "cache dir '" + Dir + "' is not writable";
      return nullptr;
    }
    Out << MetaHeader << '\n';
    if (!Out.flush()) {
      Error = "cache dir '" + Dir + "' is not writable";
      return nullptr;
    }
    Out.close();
    // A store whose meta header vanishes in a crash would be re-created
    // empty on the next open, silently orphaning the segments.
    fsyncFile(Meta.string());
    fsyncDir(Dir);
  }
  return std::unique_ptr<DiskStore>(new DiskStore(Dir));
}

std::string DiskStore::segmentPath(const std::string &Name) const {
  return (fs::path(Dir) / (Name + ".jsonl")).string();
}

DiskStore::SegmentMap DiskStore::loadSegment(const std::string &Name,
                                             std::uint64_t CompactBytes) {
  std::lock_guard<std::mutex> Lock(M);
  SegmentMap Map;
  std::string Path = segmentPath(Name);
  std::uint64_t FileBytes = 0;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return Map;
    std::string Line;
    while (std::getline(In, Line)) {
      FileBytes += Line.size() + 1;
      if (Line.empty())
        continue;
      Hash128 K;
      std::string Payload;
      if (!parseStoreLine(Line, K, Payload)) {
        ++CorruptSkipped;
        continue;
      }
      BytesLoaded += Line.size() + 1;
      Map[K] = std::move(Payload); // last record wins
    }
    // A final line without a newline (torn tail) is still delivered by
    // getline and either parses or is counted corrupt above.
  }

  // Size-bounded compaction: rewrite the segment from the deduplicated
  // survivors once duplicates/corruption have inflated it past the bound.
  // The rewrite goes through a temp file + rename so a crash mid-compaction
  // leaves either the old or the new file, never a half-written one.
  if (CompactBytes && FileBytes > CompactBytes) {
    std::string Tmp = Path + ".compact";
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (Out) {
      for (const auto &[K, Payload] : Map)
        Out << formatStoreLine(K, Payload) << '\n';
      Out.flush();
      if (Out) {
        Out.close();
        // Durability order matters: the compacted contents must be on disk
        // before the rename publishes them, and the directory entry after,
        // or a crash could leave the segment name pointing at garbage that
        // was reported compacted.
        fsyncFile(Tmp);
        auto It = Appenders.find(Name);
        if (It != Appenders.end()) {
          ::close(It->second); // reopen after the swap
          Appenders.erase(It);
        }
        std::error_code EC;
        fs::rename(Tmp, Path, EC);
        if (EC)
          fs::remove(Tmp, EC);
        else
          fsyncDir(Dir);
      }
    }
  }
  return Map;
}

int DiskStore::appenderFd(const std::string &Name) {
  auto It = Appenders.find(Name);
  if (It == Appenders.end()) {
    int Fd = ::open(segmentPath(Name).c_str(),
                    O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    It = Appenders.emplace(Name, Fd).first;
  }
  return It->second;
}

void DiskStore::append(const std::string &Name, const Hash128 &K,
                       const std::string &Payload) {
  std::lock_guard<std::mutex> Lock(M);
  int Fd = appenderFd(Name);
  if (Fd < 0)
    return; // store became unwritable mid-run: degrade to in-memory only
  std::string Line = formatStoreLine(K, Payload);
  Line += '\n';
  if (writeAll(Fd, Line.data(), Line.size()))
    BytesWritten += Line.size();
}

void DiskStore::syncLocked() {
  for (const auto &[Name, Fd] : Appenders) {
    (void)Name;
    if (Fd >= 0)
      ::fsync(Fd);
  }
  // New segment files must also survive: sync their directory entries.
  fsyncDir(Dir);
}

void DiskStore::sync() {
  std::lock_guard<std::mutex> Lock(M);
  syncLocked();
}

DiskStore::~DiskStore() {
  std::lock_guard<std::mutex> Lock(M);
  syncLocked();
  for (const auto &[Name, Fd] : Appenders) {
    (void)Name;
    if (Fd >= 0)
      ::close(Fd);
  }
  Appenders.clear();
}
