#include "engine/disk_cache.hh"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/log.hh"
#include "common/logging.hh"
#include "obs/event_log.hh"
#include "serialize/artifact.hh"

namespace fs = std::filesystem;

namespace tetris
{

namespace
{

/** Keys render as fixed-width lowercase hex: stable shard prefixes. */
std::string
keyHex(uint64_t key)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<size_t>(i)] = digits[key & 0xf];
        key >>= 4;
    }
    return s;
}

/**
 * Read the regular file at `path` whole: open, fstat, then read
 * exactly st_size bytes, retrying on EINTR. False on any failure, on
 * anything that is not a regular file, and on a short read.
 */
bool
readRegularFile(const std::string &path, std::string &bytes)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    if (ok) {
        bytes.resize(static_cast<size_t>(st.st_size));
        size_t got = 0;
        while (got < bytes.size()) {
            const ssize_t n =
                ::read(fd, bytes.data() + got, bytes.size() - got);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            got += static_cast<size_t>(n);
        }
        ok = got == bytes.size();
    }
    ::close(fd);
    return ok;
}

/** The artifact files of one store, cheap metadata included. */
struct DiskEntry
{
    fs::path path;
    uint64_t size = 0;
    fs::file_time_type mtime;
};

std::vector<DiskEntry>
listEntries(const std::string &dir)
{
    std::vector<DiskEntry> entries;
    std::error_code ec;
    for (const auto &shard : fs::directory_iterator(dir, ec)) {
        if (!shard.is_directory(ec))
            continue;
        for (const auto &file : fs::directory_iterator(shard.path(), ec)) {
            if (!file.is_regular_file(ec) ||
                file.path().extension() != ".tca") {
                continue;
            }
            DiskEntry e;
            e.path = file.path();
            e.size = file.file_size(ec);
            e.mtime = file.last_write_time(ec);
            if (!ec)
                entries.push_back(std::move(e));
        }
    }
    return entries;
}

} // namespace

std::shared_ptr<DiskCache>
DiskCache::openFromEnv()
{
    const std::string dir = envString("TETRIS_CACHE_DIR");
    if (dir.empty())
        return nullptr;
    return open(dir, envInt("TETRIS_CACHE_MAX_BYTES", 0, INT64_MAX, 0));
}

std::shared_ptr<DiskCache>
DiskCache::open(const std::string &dir, uint64_t max_bytes)
{
    if (dir.find_first_not_of(" \t\n") == std::string::npos) {
        logWarn("disk cache disabled: empty cache directory path");
        return nullptr;
    }
    std::error_code ec;
    // Pin relative paths to the current CWD once, so later loads and
    // stores don't silently retarget when the process chdirs.
    fs::path root = fs::absolute(dir, ec);
    if (ec) {
        logWarn("disk cache disabled: cannot resolve '", dir, "': ",
                ec.message());
        return nullptr;
    }
    fs::create_directories(root, ec);
    if (ec) {
        logWarn("disk cache disabled: cannot create '", root.string(),
                "': ", ec.message());
        return nullptr;
    }
    // Probe writability now: a read-only store must degrade to
    // cache-off at startup, not to per-job warnings mid-sweep.
    fs::path probe =
        root / (".probe." + std::to_string(::getpid()) + ".tmp");
    {
        std::ofstream out(probe, std::ios::binary);
        out << "probe";
        if (!out) {
            logWarn("disk cache disabled: '", root.string(),
                    "' is not writable");
            fs::remove(probe, ec);
            return nullptr;
        }
    }
    fs::remove(probe, ec);
    return std::shared_ptr<DiskCache>(
        new DiskCache(root.string(), max_bytes));
}

std::string
DiskCache::pathFor(uint64_t key) const
{
    std::string hex = keyHex(key);
    return (fs::path(dir_) / hex.substr(0, 2) / (hex + ".tca")).string();
}

std::shared_ptr<const CompileResult>
DiskCache::load(uint64_t key) const
{
    const std::string path = pathFor(key);
    std::string bytes;
    if (!readRegularFile(path, bytes)) {
        misses_.fetch_add(1);
        return nullptr;
    }
    auto result = std::make_shared<CompileResult>();
    if (!serialize::decodeArtifact(bytes, key, *result)) {
        // Corruption of any kind is a miss: the caller recompiles and
        // the subsequent store() overwrites the bad file. Worth an
        // event and a warn — one corrupt artifact is bit rot, many
        // are a codec bug or a dying disk.
        misses_.fetch_add(1);
        EventLog &events = EventLog::global();
        if (events.enabled()) {
            events.record(
                "disk.corrupt_miss",
                {EventLog::Field::u64("key", key),
                 EventLog::Field::str("path", path)});
        }
        logWarn("disk cache: corrupt artifact ", path,
                " (treating as miss)");
        return nullptr;
    }
    hits_.fetch_add(1);
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return result;
}

bool
DiskCache::store(uint64_t key, const CompileResult &result) const
{
    std::string image = serialize::encodeArtifact(key, result);
    fs::path path = pathFor(key);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec) {
        logWarn("disk cache: cannot create shard dir for ",
                path.string(), ": ", ec.message());
        return false;
    }
    // Unique-per-writer temp name in the final directory, so the
    // rename is a same-filesystem atomic replace.
    static std::atomic<unsigned> seq{0};
    fs::path tmp = path;
    tmp += ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(image.data(),
                  static_cast<std::streamsize>(image.size()));
        // Close before the rename and re-check: a buffered write
        // error (ENOSPC) may only surface at flush time, and a
        // truncated temp file must never reach the final path.
        out.close();
        if (out.fail()) {
            logWarn("disk cache: write failed for ", tmp.string());
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        logWarn("disk cache: rename failed for ", path.string(), ": ",
                ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    writes_.fetch_add(1);
    return true;
}

size_t
DiskCache::trim(uint64_t max_bytes) const
{
    std::vector<DiskEntry> entries = listEntries(dir_);
    uint64_t total = 0;
    for (const auto &e : entries)
        total += e.size;
    if (total <= max_bytes)
        return 0;
    std::sort(entries.begin(), entries.end(),
              [](const DiskEntry &a, const DiskEntry &b) {
                  return a.mtime < b.mtime;
              });
    size_t removed = 0;
    std::error_code ec;
    for (const auto &e : entries) {
        if (total <= max_bytes)
            break;
        if (fs::remove(e.path, ec) && !ec) {
            total -= e.size;
            ++removed;
        }
    }
    if (removed > 0) {
        EventLog &events = EventLog::global();
        if (events.enabled()) {
            events.record("disk.trim",
                          {EventLog::Field::u64(
                               "removed", static_cast<uint64_t>(removed)),
                           EventLog::Field::u64("kept_bytes", total),
                           EventLog::Field::u64("max_bytes", max_bytes)});
        }
        logInfo("disk cache: trimmed ", removed, " artifact(s) to ",
                total, " bytes (budget ", max_bytes, ")");
    }
    return removed;
}

void
DiskCache::clear() const
{
    std::error_code ec;
    for (const auto &e : listEntries(dir_))
        fs::remove(e.path, ec);
    // Drop now-empty shard dirs; harmless if another process is
    // concurrently repopulating them (its store() recreates dirs).
    for (const auto &shard : fs::directory_iterator(dir_, ec)) {
        std::error_code ignore;
        if (shard.is_directory(ignore) &&
            fs::is_empty(shard.path(), ignore)) {
            fs::remove(shard.path(), ignore);
        }
    }
}

DiskCache::Usage
DiskCache::usage() const
{
    Usage u;
    for (const auto &e : listEntries(dir_)) {
        ++u.entries;
        u.bytes += e.size;
    }
    return u;
}

} // namespace tetris
