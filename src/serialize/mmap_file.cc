#include "serialize/mmap_file.hh"

#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define TETRIS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TETRIS_HAVE_MMAP 0
#endif

#include "common/env.hh"

namespace tetris::serialize
{

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        reset();
        addr_ = std::exchange(other.addr_, nullptr);
        len_ = std::exchange(other.len_, 0);
        buffer_ = std::move(other.buffer_);
        other.buffer_.clear();
        valid_ = std::exchange(other.valid_, false);
    }
    return *this;
}

void
MappedFile::reset()
{
#if TETRIS_HAVE_MMAP
    if (addr_ != nullptr)
        ::munmap(addr_, len_);
#endif
    addr_ = nullptr;
    len_ = 0;
    buffer_.clear();
    valid_ = false;
}

ByteSpan
MappedFile::span() const
{
    if (!valid_)
        return ByteSpan();
    if (addr_ != nullptr)
        return ByteSpan(static_cast<const char *>(addr_), len_);
    return ByteSpan(buffer_);
}

bool
MappedFile::mmapEnabled()
{
#if TETRIS_HAVE_MMAP
    return envFlag("TETRIS_DISK_MMAP", true);
#else
    return false;
#endif
}

MappedFile
MappedFile::open(const std::string &path)
{
    MappedFile f;
#if TETRIS_HAVE_MMAP
    if (mmapEnabled()) {
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return f; // invalid: caller treats as miss
        struct stat st;
        if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
            ::close(fd);
            return f;
        }
        if (st.st_size == 0) {
            // mmap rejects zero-length maps; an empty file is still a
            // successfully-opened (if undecodable) artifact.
            ::close(fd);
            f.valid_ = true;
            return f;
        }
        void *addr = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                            PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd); // the mapping keeps the inode alive
        if (addr != MAP_FAILED) {
            f.addr_ = addr;
            f.len_ = static_cast<size_t>(st.st_size);
            f.valid_ = true;
            return f;
        }
        // MAP_FAILED (e.g. a filesystem without mmap support): fall
        // through to the buffered path below.
    }
#endif
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return f;
    f.buffer_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
        f.buffer_.clear();
        return f;
    }
    f.valid_ = true;
    return f;
}

} // namespace tetris::serialize
