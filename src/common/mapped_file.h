/**
 * @file
 * Read-only file mapping behind the trace reader and the mmap
 * enrollment store: open, fstat, mmap and an access-pattern hint,
 * with the mapping released by the destructor. Readers decode
 * straight from the mapped bytes, so a file is never copied into
 * heap and only the pages a reader touches become resident.
 */

#ifndef CODIC_COMMON_MAPPED_FILE_H
#define CODIC_COMMON_MAPPED_FILE_H

#include <cstdint>
#include <string>
#include <string_view>

namespace codic {

class MappedFile
{
  public:
    /** Pager hint for how readers walk the bytes. */
    enum class Access
    {
        Sequential, //!< Front-to-back streams (readahead pays).
        Random,     //!< Point reads (readahead is waste).
    };

    /**
     * Map `path` read-only. An empty file maps to no bytes.
     * @throws FatalError, prefixed with `what`, when the file cannot
     *         be opened, sized or mapped.
     */
    MappedFile(const std::string &path, Access access,
               std::string_view what);
    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const uint8_t *data() const { return data_; }
    uint64_t size() const { return size_; }

    /**
     * Drop the resident pages of [offset, offset + bytes): they
     * re-fault from the file if touched again. Offsets are page
     * aligned.
     */
    void release(uint64_t offset, uint64_t bytes) const;

  private:
    const uint8_t *data_ = nullptr;
    uint64_t size_ = 0;
};

} // namespace codic

#endif // CODIC_COMMON_MAPPED_FILE_H
