#include "support/Hash.h"

#include <string>

using namespace rs;

namespace {

const char Digits[] = "0123456789abcdef";

/// The value of lowercase hex digit \p C, or -1.
int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  return -1;
}

} // namespace

std::string rs::hashToHex(uint64_t H) {
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[I] = Digits[H & 0xf];
    H >>= 4;
  }
  return Out;
}

bool rs::hexToHash(std::string_view Hex, uint64_t &Out) {
  if (Hex.size() != 16)
    return false;
  uint64_t H = 0;
  for (char C : Hex) {
    const int D = hexDigit(C);
    if (D < 0)
      return false;
    H = (H << 4) | static_cast<uint64_t>(D);
  }
  Out = H;
  return true;
}

std::string rs::bytesToHex(std::string_view Bytes) {
  std::string Out;
  Out.reserve(2 * Bytes.size());
  for (char C : Bytes) {
    const auto B = static_cast<unsigned char>(C);
    Out.push_back(Digits[B >> 4]);
    Out.push_back(Digits[B & 0xf]);
  }
  return Out;
}

bool rs::hexToBytes(std::string_view Hex, std::string &Out) {
  if (Hex.size() % 2 != 0)
    return false;
  Out.clear();
  Out.reserve(Hex.size() / 2);
  for (size_t I = 0; I != Hex.size(); I += 2) {
    const int Hi = hexDigit(Hex[I]), Lo = hexDigit(Hex[I + 1]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out.push_back(static_cast<char>(Hi << 4 | Lo));
  }
  return true;
}
