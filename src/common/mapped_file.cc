#include "common/mapped_file.h"

#include "common/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#define CODIC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace codic {

MappedFile::MappedFile(const std::string &path, Access access,
                       std::string_view what)
{
#ifdef CODIC_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal(what, ": cannot open '", path, "'");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fatal(what, ": cannot stat '", path, "'");
    }
    size_ = static_cast<uint64_t>(st.st_size);
    if (size_ > 0) {
        void *map = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd, 0);
        if (map == MAP_FAILED) {
            ::close(fd);
            fatal(what, ": mmap of '", path, "' failed");
        }
        data_ = static_cast<const uint8_t *>(map);
        ::madvise(map, size_,
                  access == Access::Sequential ? MADV_SEQUENTIAL
                                               : MADV_RANDOM);
    }
    // The mapping holds its own reference to the file.
    ::close(fd);
#else
    (void)access;
    fatal(what, ": mmap is not available on this platform (cannot "
                "map '", path, "')");
#endif
}

MappedFile::~MappedFile()
{
#ifdef CODIC_HAVE_MMAP
    if (data_)
        ::munmap(const_cast<uint8_t *>(data_), size_);
#endif
}

void
MappedFile::release(uint64_t offset, uint64_t bytes) const
{
#ifdef CODIC_HAVE_MMAP
    ::madvise(const_cast<uint8_t *>(data_ + offset), bytes,
              MADV_DONTNEED);
#else
    (void)offset;
    (void)bytes;
#endif
}

} // namespace codic
