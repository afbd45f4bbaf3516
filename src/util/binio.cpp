#include "util/binio.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/fault.hpp"

namespace rnx::util {

bool read_magic(std::istream& f, std::string_view magic) {
  std::string got(magic.size(), '\0');
  f.read(got.data(), static_cast<std::streamsize>(got.size()));
  return f && got == magic;
}

// ---- atomic writes ---------------------------------------------------------

void atomic_write_stream(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f)
      throw std::runtime_error("atomic_write_stream: cannot open " + tmp);
    try {
      write(f);
    } catch (...) {
      f.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw;
    }
    f.flush();
    // Injected write failure (io.atomic.write): poison the stream so
    // the REAL short-write detection below fires — chaos tests exercise
    // the same cleanup branch a full disk does.
    if (fault_fires("io.atomic.write")) f.setstate(std::ios::badbit);
    if (!f) {
      f.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("atomic_write_stream: write failed on " + tmp);
    }
  }
  std::error_code ec;
  if (fault_fires("io.atomic.rename"))
    ec = std::make_error_code(std::errc::io_error);  // injected rename failure
  else
    std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    std::filesystem::remove(tmp, ec2);
    throw std::runtime_error("atomic_write_stream: cannot rename " + tmp +
                             " -> " + path + " (" + ec.message() + ")");
  }
}

std::size_t remove_stale_temps(const std::string& dir) {
  namespace fs = std::filesystem;
  static constexpr std::string_view kRnxExtensions[] = {
      ".rnxd", ".rnxm", ".rnxb", ".rnxw", ".rnxc"};
  std::error_code ec;
  fs::directory_iterator it(dir.empty() ? "." : dir, ec);
  if (ec) return 0;
  std::size_t removed = 0;
  for (const fs::directory_entry& e : it) {
    if (!e.is_regular_file(ec)) continue;
    const fs::path& p = e.path();
    if (p.extension() != ".tmp") continue;
    const std::string inner = p.stem().extension().string();
    bool known = false;
    for (const std::string_view ext : kRnxExtensions)
      if (inner == ext) known = true;
    if (!known) continue;
    std::error_code rec;
    if (fs::remove(p, rec)) ++removed;
  }
  return removed;
}

// ---- checksummed envelope --------------------------------------------------

namespace {
// magic, u32 version, u64 body size, u64 checksum.
constexpr std::uint64_t kEnvelopeHeaderBytes = 4 + 4 + 8 + 8;
}  // namespace

void write_envelope(const std::string& path, const EnvelopeFormat& format,
                    std::uint32_t version, std::string_view body) {
  atomic_write_stream(path, [&](std::ostream& f) {
    f.write(format.magic.data(),
            static_cast<std::streamsize>(format.magic.size()));
    put(f, version);
    put(f, static_cast<std::uint64_t>(body.size()));
    put(f, fnv1a64(body));
    f.write(body.data(), static_cast<std::streamsize>(body.size()));
  });
}

std::string detail::read_envelope(const std::string& path,
                                  const EnvelopeFormat& format,
                                  Envelope& out) {
  const std::string noun(format.noun);
  std::ifstream f(path, std::ios::binary);
  if (!f) return "cannot open " + noun;
  if (!read_magic(f, format.magic))
    return "bad magic (not a " + std::string(format.extension) + " " + noun +
           ")";
  std::uint64_t body_size = 0, checksum = 0;
  const auto get = [&f](auto& v) {
    f.read(reinterpret_cast<char*>(&v), sizeof(v));
    return static_cast<bool>(f);
  };
  if (!get(out.version)) return "truncated " + noun;
  if (out.version < format.min_version || out.version > format.max_version)
    return "unsupported " + noun + " version " + std::to_string(out.version);
  if (!get(body_size) || !get(checksum)) return "truncated " + noun;
  // The bound is the file itself: a body can never be larger than the
  // bytes behind the header, so a corrupt size fails here — before the
  // allocation — whatever the format's typical size.
  std::error_code ec;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  const std::uint64_t left =
      !ec && file_bytes > kEnvelopeHeaderBytes
          ? file_bytes - kEnvelopeHeaderBytes
          : 0;
  if (body_size == 0 || body_size > left)
    return "corrupt header (body size " + std::to_string(body_size) +
           ", the file holds " + std::to_string(left) + " body bytes)";
  out.body.assign(body_size, '\0');
  f.read(out.body.data(), static_cast<std::streamsize>(body_size));
  if (!f) return "truncated " + noun;
  // Injected bit rot: corrupt one deterministic bit BEFORE the checksum
  // verify, so the normal detection path fires.
  if (!format.bitflip_site.empty() && fault_fires(format.bitflip_site)) {
    const std::uint64_t k =
        FaultInjector::instance().fired(format.bitflip_site);
    out.body[(k * 131) % out.body.size()] ^= static_cast<char>(1u << (k % 8));
  }
  if (fnv1a64(out.body) != checksum)
    return noun + " checksum mismatch (corrupt)";
  return {};
}

}  // namespace rnx::util
