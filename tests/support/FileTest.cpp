// rs::readFile and rs::writeFileAtomic. The readFile suite keeps its
// historical name, Mmap, so the test IDs stay stable.

#include "support/File.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace rs;

namespace {

struct TempFile {
  fs::path Path;
  explicit TempFile(const std::string &Contents) {
    Path = fs::temp_directory_path() /
           ("rs-readfile-" + std::to_string(::getpid()) + "-" +
            std::to_string(Counter++));
    std::ofstream(Path, std::ios::binary) << Contents;
  }
  ~TempFile() {
    std::error_code Ec;
    fs::remove(Path, Ec);
  }
  static int Counter;
};
int TempFile::Counter = 0;

} // namespace

TEST(Mmap, MissingFileIsNullopt) {
  std::string Out = "stale";
  EXPECT_EQ(readFile("/nonexistent/rs-readfile-no-such-file", Out),
            ReadFileError::CannotOpen);
}

TEST(Mmap, EmptyFileIsNullopt) {
  // An empty file is a successful read of zero bytes, not an error.
  TempFile F("");
  std::string Out = "stale";
  EXPECT_EQ(readFile(F.Path.string(), Out), ReadFileError::None);
  EXPECT_TRUE(Out.empty());
}

TEST(Mmap, DirectoryIsNullopt) {
  std::string Out;
  EXPECT_EQ(readFile(fs::temp_directory_path().string(), Out),
            ReadFileError::IsDirectory);
  EXPECT_TRUE(Out.empty());
}

TEST(WriteFileAtomic, CreatesParentsAndLeavesNoTemporary) {
  fs::path Dir = fs::temp_directory_path() /
                 ("rs-writeatomic-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::path Target = Dir / "a" / "b" / "entry.bin";
  std::string Bytes("bin\0ary", 7);
  ASSERT_TRUE(writeFileAtomic(Target.string(), Bytes));
  ASSERT_TRUE(writeFileAtomic(Target.string(), "replaced"));
  std::string Out;
  EXPECT_EQ(readFile(Target.string(), Out), ReadFileError::None);
  EXPECT_EQ(Out, "replaced");
  size_t Files = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir))
    Files += E.is_regular_file();
  EXPECT_EQ(Files, 1u);
  fs::remove_all(Dir);
}
