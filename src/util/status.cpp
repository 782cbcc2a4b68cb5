#include "util/status.hpp"

namespace bpnsp {

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:
        return "Ok";
      case StatusCode::IoError:
        return "IoError";
      case StatusCode::CorruptData:
        return "CorruptData";
      case StatusCode::Busy:
        return "Busy";
      case StatusCode::Cancelled:
        return "Cancelled";
      case StatusCode::DeadlineExceeded:
        return "DeadlineExceeded";
      case StatusCode::InvalidArgument:
        return "InvalidArgument";
    }
    return "Unknown";
}

std::string
Status::str() const
{
    if (ok())
        return "ok";
    std::string out = statusCodeName(c);
    if (!msg.empty()) {
        out += ": ";
        out += msg;
    }
    return out;
}

} // namespace bpnsp
