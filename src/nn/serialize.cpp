#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>

#include "analysis/verifier.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"

namespace advh::nn {

namespace {
constexpr std::uint32_t kMagic = 0x41445648;  // "ADVH"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  ADVH_CHECK_MSG(is.good(), "truncated state file");
  return v;
}
}  // namespace

void save_state(model& m, const std::string& path) {
  std::vector<tensor*> state;
  m.net().collect_state(state);

  std::string bytes;
  write_pod(bytes, kMagic);
  write_pod(bytes, kVersion);
  write_pod(bytes, static_cast<std::uint64_t>(state.size()));
  for (tensor* t : state) {
    write_pod(bytes, static_cast<std::uint64_t>(t->numel()));
    bytes.append(reinterpret_cast<const char*>(t->data().data()),
                 t->numel() * sizeof(float));
  }
  // A save interrupted mid-write must not leave a file with a valid magic
  // and a truncated payload: is_state_file would accept it and every
  // later load would throw.
  atomic_write_file(path, bytes);
}

void load_state(model& m, const std::string& path, bool verify) {
  std::vector<tensor*> state;
  m.net().collect_state(state);

  std::ifstream is(path, std::ios::binary);
  ADVH_CHECK_MSG(is.good(), "cannot open " + path);
  ADVH_CHECK_MSG(read_pod<std::uint32_t>(is) == kMagic,
                 path + " is not an AdvHunter state file");
  ADVH_CHECK_MSG(read_pod<std::uint32_t>(is) == kVersion,
                 path + ": unsupported version");
  const auto count = read_pod<std::uint64_t>(is);
  ADVH_CHECK_MSG(count == state.size(),
                 path + ": state tensor count mismatch (architecture drift?)");
  for (tensor* t : state) {
    const auto numel = read_pod<std::uint64_t>(is);
    ADVH_CHECK_MSG(numel == t->numel(), path + ": tensor size mismatch");
    is.read(reinterpret_cast<char*>(t->data().data()),
            static_cast<std::streamsize>(numel * sizeof(float)));
    ADVH_CHECK_MSG(is.good(), path + ": truncated payload");
  }
  if (verify) analysis::ensure_verified(m, path);
}

bool is_state_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return is.good() && magic == kMagic;
}

}  // namespace advh::nn
