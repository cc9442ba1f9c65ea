#include "core/flags.h"

#include <algorithm>

namespace lossyts::flags {

std::vector<std::string> SplitList(std::string_view text) {
  std::vector<std::string> items;
  while (!text.empty()) {
    const size_t comma = std::min(text.find(','), text.size());
    if (comma > 0) items.emplace_back(text.substr(0, comma));
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return items;
}

Status NumberError(std::string_view text, std::errc ec, const char* kind) {
  const std::string quoted = std::string("'").append(text).append("'");
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange(quoted + " is out of range");
  }
  return Status::InvalidArgument(quoted + " is not " + kind);
}

Flag Switch(std::string name, std::string help, bool* dest, bool value) {
  return {std::move(name), "", std::move(help), 0,
          [dest, value](std::span<const std::string>) {
            *dest = value;
            return Status::OK();
          }};
}

Status Parse(const std::vector<Flag>& table,
             const std::vector<std::string>& args,
             std::vector<std::string>* positional) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) {
      if (positional == nullptr) {
        return Status::InvalidArgument("unexpected argument '" + args[i] +
                                       "'");
      }
      positional->push_back(args[i]);
      continue;
    }
    const auto flag =
        std::find_if(table.begin(), table.end(),
                     [&](const Flag& f) { return f.name == args[i]; });
    if (flag == table.end()) {
      return Status::InvalidArgument("unknown flag " + args[i]);
    }
    if (args.size() - i - 1 < flag->arity) {
      return Status::InvalidArgument(flag->name + " needs " +
                                     flag->placeholder);
    }
    const Status s = flag->set(std::span(args).subspan(i + 1, flag->arity));
    if (!s.ok()) {
      return Status::InvalidArgument(flag->name + ": " + s.message());
    }
    i += flag->arity;
  }
  return Status::OK();
}

std::string Usage(const std::vector<Flag>& table, size_t indent) {
  const auto spelled = [](const Flag& f) {
    return f.placeholder.empty() ? f.name : f.name + " " + f.placeholder;
  };
  size_t width = 0;
  for (const Flag& f : table) width = std::max(width, spelled(f).size());
  std::string out;
  for (const Flag& f : table) {
    const std::string left = spelled(f);
    out += std::string(indent, ' ') + left +
           std::string(width - left.size() + 2, ' ') + f.help + "\n";
  }
  return out;
}

}  // namespace lossyts::flags
