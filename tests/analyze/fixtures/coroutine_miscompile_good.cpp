// must-pass: coroutine-miscompile — the same operations with the awaited
// value chosen by if/else and every call argument bound to a local.
#include <cstddef>
#include <string>

struct Status {};
template <typename T>
struct Task {};
struct VarDesc {
  std::string name;
  int version = 0;
};
struct Box {};
struct Client {
  Task<Status> open_write();
  Task<Status> open_read();
  Task<Status> get(const VarDesc& var, const Box& box);
  Task<Status> resize(std::size_t n);
  template <typename F>
  Task<Status> retry(F op);
};

Task<Status> init(Client& c, bool writer) {
  Status st;
  if (writer) {
    st = co_await c.open_write();
  } else {
    st = co_await c.open_read();
  }
  const int mode = writer ? 1 : 2;  // a conditional without a co_await
  (void)mode;
  co_return st;
}

Task<Status> read(Client& c, const VarDesc& var, const Box& box) {
  const VarDesc base{var.name, 0};
  co_return co_await c.get(base, box);
}

Task<Status> retried(Client& c) {
  co_await c.resize(std::size_t{4});  // a scalar, not a class type
  co_return co_await c.retry([]() -> Status { return Status{}; });
}
