// The one command-line option parser of the bench, example and tool
// binaries: `--flag value` and `--flag=value` both work, and an unknown
// option or a missing value exits with status 2. Standard library only,
// so the daemon and its client take it without the bench harness.
#pragma once

#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace st::bench {

/// One command-line option of a bench, example or tool binary. A value
/// option accepts both `--flag=value` and `--flag value`; a switch
/// (`takes_value = false`) is the bare `--flag` and is applied with an
/// empty value.
struct Option {
  std::string_view flag;
  std::function<void(const std::string& value)> apply;
  bool takes_value = true;
};

/// An Option::apply that stores the value in `target`: verbatim into a
/// string, otherwise parsed as a base-10 integer or a floating-point
/// number (strtoull / strtoll / strtod, so an unparsable value reads 0).
template <typename T>
[[nodiscard]] auto store(T& target) {
  return [&target](const std::string& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      target = value;
    } else if constexpr (std::is_floating_point_v<T>) {
      target = static_cast<T>(std::strtod(value.c_str(), nullptr));
    } else if constexpr (std::is_unsigned_v<T>) {
      target = static_cast<T>(std::strtoull(value.c_str(), nullptr, 10));
    } else {
      target = static_cast<T>(std::strtoll(value.c_str(), nullptr, 10));
    }
  };
}

/// The binary's name without its directory, for error messages.
[[nodiscard]] inline std::string_view program_name(char** argv) {
  const std::string_view path = argv[0];
  return path.substr(path.find_last_of('/') + 1);
}

/// Apply, in argv order, every entry that names one of `options` and
/// remove it from argv; the other entries stay, in order, for the
/// caller's own parsing (or google-benchmark's). A value option given
/// last without its value exits with status 2.
inline void consume_options(int& argc, char** argv,
                            std::initializer_list<Option> options) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Option* match = nullptr;
    std::string value;
    for (const Option& option : options) {
      if (arg == option.flag) {
        match = &option;
        if (option.takes_value) {
          if (i + 1 >= argc) {
            std::cerr << program_name(argv) << ": missing value for " << arg
                      << "\n";
            std::exit(2);
          }
          value = argv[++i];
        }
        break;
      }
      if (option.takes_value && arg.size() > option.flag.size() &&
          arg.starts_with(option.flag) && arg[option.flag.size()] == '=') {
        match = &option;
        value = arg.substr(option.flag.size() + 1);
        break;
      }
    }
    if (match == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    match->apply(value);
  }
  argc = out;
}

/// Exit with status 2 on any argv entry the consume passes left behind.
inline void reject_unknown_options(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << program_name(argv) << ": unknown option '" << argv[1]
              << "'\n";
    std::exit(2);
  }
}

/// consume_options, then reject_unknown_options: every remaining flag of
/// the binary is one of `options`.
inline void parse_options(int argc, char** argv,
                          std::initializer_list<Option> options) {
  consume_options(argc, argv, options);
  reject_unknown_options(argc, argv);
}

}  // namespace st::bench
