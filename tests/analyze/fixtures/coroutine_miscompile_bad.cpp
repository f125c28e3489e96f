// must-flag: coroutine-miscompile — co_await forms GCC 12 compiles into
// code that frees a bad pointer at run time.
#include <string>

struct Status {};
template <typename T>
struct Task {};
template <typename T>
struct Wrapper {
  T value;
};
struct VarDesc {
  std::string name;
  int version = 0;
};
struct Box {};
struct Client {
  Task<Status> open_write();
  Task<Status> open_read();
  Task<Status> get(const VarDesc& var, const Box& box);
  Task<Status> lookup(const std::string& name, const Box& box);
  Task<Status> wrap(const Wrapper<int>& w);
};

Task<Status> init(Client& c, bool writer) {
  Status st = writer ? co_await c.open_write()   // FLAG: in ?:
                     : co_await c.open_read();
  co_return st;
}

Task<Status> init_else(Client& c, bool writer) {
  Status st = writer ? Status{} : co_await c.open_read();  // FLAG: in ?:
  co_return st;
}

Task<Status> read(Client& c, const VarDesc& var, const Box& box) {
  co_return co_await c.get(VarDesc{var.name, 0}, box);  // FLAG: project type
}

Task<Status> read_name(Client& c, const Box& box) {
  co_return co_await c.lookup(std::string{"field"}, box);  // FLAG: std type
}

Task<Status> wrapped(Client& c) {
  co_return co_await c.wrap(Wrapper<int>{3});  // FLAG: template-id
}
